package lustre

import (
	"fmt"
	"strconv"
	"strings"

	"pfsim/internal/cluster"
	"pfsim/internal/flow"
)

// This file holds the fault-injection hooks the declarative scenario
// timeline compiles onto: link lookup by stable name, whole-system
// health sweeps, and rebuild/resync traffic after an OST failure. The
// hooks are plain methods so hand-written experiments and the timeline
// compiler drive exactly the same primitives — which is what makes the
// byte-identity property test in internal/scenariofile meaningful.

// ParseLinkName checks a scenario-facing link name against plat's
// topology: "backbone", "nic<i>" for a node i, or "oss<i>" for an OSS i.
// It returns the name's group ("backbone", "nic" or "oss") and its index
// in the group. OST links are addressed through OST(i) and its health
// model rather than by name — swapping a raw capacity model onto an OST
// link would silently discard the class-aware service model — so
// "ost<i>" is refused. Errors name the link alone, for the caller to
// position.
func ParseLinkName(plat *cluster.Platform, name string) (group string, index int, err error) {
	if name == "backbone" {
		return name, 0, nil
	}
	for _, g := range []struct {
		prefix string
		limit  int
	}{{"nic", plat.Nodes}, {"oss", plat.OSSs}} {
		if !strings.HasPrefix(name, g.prefix) {
			continue
		}
		i, err := strconv.Atoi(name[len(g.prefix):])
		if err != nil {
			return "", 0, fmt.Errorf("bad link name %q", name)
		}
		if i < 0 || i >= g.limit {
			return "", 0, fmt.Errorf("link %q out of range [0,%d)", name, g.limit)
		}
		return g.prefix, i, nil
	}
	if strings.HasPrefix(name, "ost") {
		return "", 0, fmt.Errorf("OST links carry the service model; use ost_health, not link_capacity, for %q", name)
	}
	return "", 0, fmt.Errorf("unknown link %q (backbone, nic<i>, oss<i>)", name)
}

// LinkByName resolves a topology link by its scenario-facing name (see
// ParseLinkName).
func (s *System) LinkByName(name string) (*flow.Link, error) {
	group, i, err := ParseLinkName(s.plat, name)
	switch {
	case err != nil:
		return nil, fmt.Errorf("lustre: %w", err)
	case group == "nic":
		return s.nics[i], nil
	case group == "oss":
		return s.osss[i], nil
	}
	return s.backbone, nil
}

// SetAllOSTHealth applies one health factor to every OST — a whole-shard
// brownout (factor near 0) or recovery (factor 1). Negative factors
// clamp to 0 like OST.SetHealth.
func (s *System) SetAllOSTHealth(factor float64) {
	for i := range s.osts {
		s.osts[i].SetHealth(factor)
	}
}

// RebuildOpts shapes the background resync traffic started by
// StartRebuild.
type RebuildOpts struct {
	// SizeMB is the total volume to reconstruct onto the target.
	SizeMB float64
	// Streams is the rebuild concurrency (default 1): the volume is
	// split evenly across this many source→target flows.
	Streams int
	// RateMBs optionally caps each stream (<= 0 = uncapped), modelling a
	// throttled rebuild that deliberately yields to foreground I/O.
	RateMBs float64
	// Sources lists the OSTs the surviving replicas are read from. Empty
	// means the target's OSS-neighbour OSTs excluding the target itself,
	// round-robin.
	Sources []int
}

// StartRebuild injects rebuild/resync traffic toward OST target: reads
// from surviving source OSTs traverse source OST link → source OSS →
// backbone → target OSS → target OST, competing with foreground jobs on
// every shared hop. Streams register on both end OSTs with synthetic
// negative file IDs (the MDS hands out positive ones), so rebuild I/O
// participates in the class-aware contention model without colliding
// with any real file. Returns the batch of rebuild streams, whose wait
// ends when the last one finishes.
func (s *System) StartRebuild(target int, opts RebuildOpts) *flow.Batch {
	if target < 0 || target >= len(s.osts) {
		panic(fmt.Sprintf("lustre: rebuild target %d out of range [0,%d)", target, len(s.osts)))
	}
	if opts.SizeMB <= 0 {
		panic(fmt.Sprintf("lustre: rebuild volume must be > 0, got %v", opts.SizeMB))
	}
	streams := opts.Streams
	if streams < 1 {
		streams = 1
	}
	sources := opts.Sources
	if len(sources) == 0 {
		for i := range s.osts {
			if s.osts[i].oss == s.osts[target].oss && i != target {
				sources = append(sources, i)
			}
		}
		if len(sources) == 0 {
			// Single-OST OSS: pull across the backbone from the next OSS.
			for i := range s.osts {
				if i != target {
					sources = append(sources, i)
					break
				}
			}
		}
	}
	for _, src := range sources {
		if src < 0 || src >= len(s.osts) {
			panic(fmt.Sprintf("lustre: rebuild source %d out of range [0,%d)", src, len(s.osts)))
		}
		if src == target {
			panic(fmt.Sprintf("lustre: rebuild source %d is the target", src))
		}
	}
	tgt := &s.osts[target]
	per := opts.SizeMB / float64(streams)
	specs := make([]flow.FlowSpec, streams)
	const rebuildRPCMB = 1.0 // resync chunks stream in ~1 MB requests
	for i := 0; i < streams; i++ {
		src := &s.osts[sources[i%len(sources)]]
		s.rebuildSeq--
		fileID := s.rebuildSeq
		rd := src.AddStream(cluster.ClassSequential, fileID, rebuildRPCMB)
		wr := tgt.AddStream(cluster.ClassSequential, fileID, rebuildRPCMB)
		specs[i] = flow.FlowSpec{
			Name:    fmt.Sprintf("rebuild/ost%d/s%d", target, i),
			SizeMB:  per,
			MaxRate: opts.RateMBs,
			OnDone: func() {
				rd.Remove()
				wr.Remove()
			},
			Path: []*flow.Link{src.link, s.osss[src.oss], s.backbone, s.osss[tgt.oss], tgt.link},
		}
	}
	return s.net.StartBatch(specs)
}
