package scenariofile

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"pfsim/internal/cluster"
	"pfsim/internal/flow"
	"pfsim/internal/ior"
	"pfsim/internal/lustre"
	"pfsim/internal/mpiio"
	"pfsim/internal/stats"
	"pfsim/internal/workload"
)

// BuildPlatform resolves the file's platform section to a validated
// cluster description: the named preset with the file's overrides
// applied on top.
func (f *File) BuildPlatform() (*cluster.Platform, error) {
	plat := preset(f.Platform.Preset)
	if plat == nil {
		return nil, fmt.Errorf("%s: unknown platform preset %q", f.errName(), f.Platform.Preset)
	}
	if f.Platform.Seed != 0 {
		plat.Seed = f.Platform.Seed
	}
	if f.Platform.Nodes > 0 {
		plat.Nodes = f.Platform.Nodes
	}
	if f.Platform.OSTs > 0 {
		plat.OSTs = f.Platform.OSTs
		if plat.MaxStripeCount > plat.OSTs {
			// Shrunken test topologies keep the preset's wide default stripe
			// ceiling otherwise, which no file could satisfy.
			plat.MaxStripeCount = plat.OSTs
		}
	}
	if f.Platform.OSSs > 0 {
		plat.OSSs = f.Platform.OSSs
	}
	if f.Platform.BackboneMBs > 0 {
		plat.BackboneMBs = f.Platform.BackboneMBs
	}
	if f.Platform.NICMBs > 0 {
		plat.NICMBs = f.Platform.NICMBs
	}
	if f.Platform.OSSMBs > 0 {
		plat.OSSMBs = f.Platform.OSSMBs
	}
	if f.Platform.JitterCV != nil {
		plat.JitterCV = *f.Platform.JitterCV
	}
	if err := plat.Validate(); err != nil {
		return nil, fmt.Errorf("%s: platform: %w", f.errName(), err)
	}
	return plat, nil
}

// preset returns a fresh copy of the named platform preset ("" is cab),
// or nil for an unknown name.
func preset(name string) *cluster.Platform {
	switch name {
	case "", "cab":
		return cluster.Cab()
	case "stampede":
		return cluster.Stampede()
	}
	return nil
}

// errName names the file in errors.
func (f *File) errName() string {
	if f.Path != "" {
		return f.Path
	}
	return f.Name
}

// BuildScenarios expands the fleet (or every shard's fleet) into
// concrete workload scenarios: generator entries draw their jobs from
// their seeded distribution streams, plain entries stamp Count staggered
// copies. Monolithic files return exactly one scenario; sharded files
// return one per expanded shard. The expansion is deterministic for a
// fixed file.
func (f *File) BuildScenarios() ([]workload.Scenario, error) {
	if !f.Sharded() {
		jobs, err := f.expandFleet(f.Fleet, "fleet")
		if err != nil {
			return nil, err
		}
		return []workload.Scenario{{Name: f.Name, Jobs: jobs}}, nil
	}
	out := make([]workload.Scenario, 0, f.ShardCount())
	for si := range f.Shards {
		spec := &f.Shards[si]
		reps := spec.Replicate
		if reps < 1 {
			reps = 1
		}
		for j := 0; j < reps; j++ {
			name := spec.Name
			if name == "" {
				name = fmt.Sprintf("fs%d", len(out))
			}
			if reps > 1 {
				name = fmt.Sprintf("%s-r%d", name, j)
			}
			scope := fmt.Sprintf("shards[%d].fleet", si)
			if reps > 1 {
				// Replicas draw from distinct generator streams so a
				// replicated shard spec yields varied, not cloned, fleets.
				scope = fmt.Sprintf("%s#r%d", scope, j)
			}
			jobs, err := f.expandFleet(spec.Fleet, scope)
			if err != nil {
				return nil, err
			}
			out = append(out, workload.Scenario{Name: f.Name + "/" + name, Jobs: jobs})
		}
	}
	return out, nil
}

// expandFleet turns one fleet section into placed workload jobs.
func (f *File) expandFleet(fleet []FleetEntry, scope string) ([]workload.Job, error) {
	var jobs []workload.Job
	for i := range fleet {
		e := &fleet[i]
		if e.Gen != nil {
			gjobs, err := f.expandGenerator(e.Gen, fmt.Sprintf("%s[%d]", scope, i))
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, gjobs...)
			continue
		}
		w, err := f.entryWorkload(e)
		if err != nil {
			return nil, err
		}
		for c := 0; c < e.Count; c++ {
			j := workload.Job{
				Workload:     w,
				StartAt:      e.StartAt + float64(float64(c)*e.StartStagger),
				Stripes:      e.Stripes,
				StripeSizeMB: e.StripeSizeMB,
			}
			if c == 0 {
				// Later copies auto-place after the pinned first copy; pinning
				// them all to one node range would always overlap.
				j.FirstNode = e.FirstNode
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// entryWorkload materialises a hand-listed (non-generator) entry.
func (f *File) entryWorkload(e *FleetEntry) (workload.Workload, error) {
	switch {
	case e.IOR != nil:
		s := e.IOR
		label := s.Label
		if label == "" {
			label = "ior"
		}
		api := mpiio.DriverLustre
		switch s.API {
		case "ufs":
			api = mpiio.DriverUFS
		case "plfs":
			api = mpiio.DriverPLFS
		}
		return workload.IORJob{Cfg: ior.Config{
			Label:          label,
			API:            api,
			BlockSizeMB:    s.BlockMB,
			TransferSizeMB: s.TransferMB,
			SegmentCount:   s.Segments,
			NumTasks:       s.Tasks,
			WriteFile:      true,
			FilePerProc:    s.FilePerProc,
			Collective:     s.Collective,
			Hints:          mpiio.NewHints(),
			Reps:           s.Reps,
			ComputeSeconds: s.ComputeSeconds,
		}}, nil
	case e.PLFS != nil:
		s := e.PLFS
		return workload.PLFSLogger{
			Name:       s.Label,
			Ranks:      s.Ranks,
			MBPerRank:  s.MBPerRank,
			TransferMB: s.TransferMB,
			Reps:       s.Reps,
		}, nil
	case e.Checkpoint != nil:
		s := e.Checkpoint
		return workload.Checkpointer{
			Name: s.Label,
			App: workload.Checkpoint{
				Ranks:          s.Ranks,
				StateMBPerRank: s.StateMBPerRank,
				ComputeSeconds: s.ComputeSeconds,
			},
			Checkpoints: s.Checkpoints,
		}, nil
	}
	return nil, fmt.Errorf("%s: fleet entry has no workload", f.errName())
}

// expandGenerator draws the generator's jobs from its seeded stream. The
// stream seed is the generator's own, or one derived from the scenario
// name and the entry's position — so two generators in one file, or one
// generator in two files, never share draws.
func (f *File) expandGenerator(g *GeneratorSpec, scope string) ([]workload.Job, error) {
	seed := g.Seed
	if seed == 0 {
		seed = ior.HashLabel(f.Name) ^ ior.HashLabel(scope)
	}
	rng := stats.NewRNG(seed)
	jobs := make([]workload.Job, 0, g.Count)
	for j := 0; j < g.Count; j++ {
		label := fmt.Sprintf("%s-g%d", g.Label, j)
		var w workload.Workload
		// Draw order is fixed per kind; adding a field draws after the
		// existing ones so older files keep their fleets.
		switch g.Kind {
		case "ior":
			block := sampleF(g.BlockMB, rng, 4, 0.001)
			transfer := sampleF(g.TransferMB, rng, 1, 0.001)
			if transfer > block {
				transfer = block
			}
			collective := true
			if g.Collective != nil {
				collective = *g.Collective
			}
			fpp := false
			if g.FilePerProc != nil {
				fpp = *g.FilePerProc
			}
			w = workload.IORJob{Cfg: ior.Config{
				Label:          label,
				API:            mpiio.DriverLustre,
				BlockSizeMB:    block,
				TransferSizeMB: transfer,
				SegmentCount:   sampleInt(g.Segments, rng, 10, 1),
				NumTasks:       sampleInt(g.Tasks, rng, 1, 1),
				WriteFile:      true,
				FilePerProc:    fpp,
				Collective:     collective,
				Hints:          mpiio.NewHints(),
				Reps:           sampleInt(g.Reps, rng, 1, 1),
				ComputeSeconds: sampleF(g.ComputeSeconds, rng, 0, 0),
			}}
		case "plfs":
			w = workload.PLFSLogger{
				Name:       label,
				Ranks:      sampleInt(g.Tasks, rng, 1, 1),
				MBPerRank:  sampleF(g.MBPerRank, rng, 400, 0.001),
				TransferMB: sampleF(g.TransferMB, rng, 0, 0),
				Reps:       sampleInt(g.Reps, rng, 1, 1),
			}
		case "checkpoint":
			w = workload.Checkpointer{
				Name: label,
				App: workload.Checkpoint{
					Ranks:          sampleInt(g.Tasks, rng, 1, 1),
					StateMBPerRank: sampleF(g.StateMB, rng, 1, 0.001),
					ComputeSeconds: sampleF(g.ComputeSeconds, rng, 0, 0),
				},
				Checkpoints: sampleInt(g.Checkpoints, rng, 1, 1),
			}
		default:
			return nil, fmt.Errorf("%s: %s: unknown generator kind %q", f.errName(), scope, g.Kind)
		}
		jobs = append(jobs, workload.Job{
			Workload:     w,
			StartAt:      sampleF(g.StartAt, rng, 0, 0),
			Stripes:      sampleInt(g.Stripes, rng, 0, 0),
			StripeSizeMB: sampleF(g.StripeSizeMB, rng, 0, 0),
		})
	}
	return jobs, nil
}

// sample draws one value from the distribution.
func (d *Dist) sample(rng *stats.RNG) float64 {
	switch d.Kind {
	case "const":
		return d.A
	case "uniform":
		return d.A + float64(rng.Float64()*(d.B-d.A))
	case "choice":
		return d.Choices[rng.IntN(len(d.Choices))]
	case "normal":
		return rng.Normal(d.A, d.B)
	}
	panic(fmt.Sprintf("scenariofile: unknown distribution %q", d.Kind))
}

// sampleF draws a float with a default for nil specs and a floor for
// out-of-range draws (a wide normal can land below physical minimums).
func sampleF(d *Dist, rng *stats.RNG, def, floor float64) float64 {
	if d == nil {
		return def
	}
	v := d.sample(rng)
	if v < floor {
		v = floor
	}
	return v
}

// sampleInt draws an integer (rounding) with a default and a floor.
func sampleInt(d *Dist, rng *stats.RNG, def, floor int) int {
	if d == nil {
		return def
	}
	v := int(math.Round(d.sample(rng)))
	if v < floor {
		v = floor
	}
	return v
}

// Validate fully checks the file against its resolved platform: the
// fleet must expand, place and validate (node capacity, stripe hints),
// and every timeline reference (OST index, link name, shard) must exist
// on the platform. This is `pfsim-scenario validate`: a passing file
// cannot fail to launch, though its assertions may still fail.
func (f *File) Validate() error {
	_, _, err := f.compile()
	return err
}

// compile is Validate, handing back what it built: the resolved platform
// and the expanded scenarios, ready to run.
func (f *File) compile() (*cluster.Platform, []workload.Scenario, error) {
	plat, err := f.BuildPlatform()
	if err != nil {
		return nil, nil, err
	}
	err = f.checkFleetSize(f.Fleet, -1, plat.Nodes)
	for s := 0; err == nil && s < len(f.Shards); s++ {
		err = f.checkFleetSize(f.Shards[s].Fleet, s, plat.Nodes)
	}
	if err != nil {
		return nil, nil, err
	}
	scens, err := f.BuildScenarios()
	if err != nil {
		return nil, nil, err
	}
	for i := range scens {
		if err := scens[i].Validate(plat); err != nil {
			if f.Sharded() {
				return nil, nil, fmt.Errorf("%s: shard %d: %w", f.errName(), i, err)
			}
			return nil, nil, fmt.Errorf("%s: %w", f.errName(), err)
		}
	}
	for i := range f.Timeline {
		ev := &f.Timeline[i]
		where := fmt.Sprintf("%s: timeline[%d]", f.errName(), i)
		switch ev.Kind {
		case EvOSTHealth, EvOSTFail, EvOSTRecover:
			if ev.OST >= plat.OSTs {
				return nil, nil, fmt.Errorf("%s: OST %d out of range [0,%d)", where, ev.OST, plat.OSTs)
			}
		case EvLinkCapacity:
			if err := checkLinkName(plat, ev.Link); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", where, err)
			}
		case EvRebuild:
			if ev.OST >= plat.OSTs {
				return nil, nil, fmt.Errorf("%s: OST %d out of range [0,%d)", where, ev.OST, plat.OSTs)
			}
			for _, s := range ev.Sources {
				if s >= plat.OSTs {
					return nil, nil, fmt.Errorf("%s: source OST %d out of range [0,%d)", where, s, plat.OSTs)
				}
			}
		}
	}
	return plat, scens, nil
}

// checkFleetSize rejects the first entry at which a fleet's running job
// total passes the platform's nodes: the jobs of one scenario hold
// disjoint node ranges of at least one node each, so such a fleet can
// never place, and expanding it first could exhaust memory. shard is the
// fleet's index in Shards, or -1 for the monolithic fleet.
func (f *File) checkFleetSize(fleet []FleetEntry, shard, nodes int) error {
	jobs := 0
	for i := range fleet {
		n, key := fleet[i].Count, "count"
		if g := fleet[i].Gen; g != nil {
			n, key = g.Count, "generator.count"
		}
		if n <= nodes-jobs {
			jobs += n
			continue
		}
		where := fmt.Sprintf("fleet[%d].%s", i, key)
		if shard >= 0 {
			where = fmt.Sprintf("shards[%d].%s", shard, where)
		}
		return fmt.Errorf("%s: %s: the fleet's jobs outnumber the platform's %d nodes (each job needs at least one)",
			f.errName(), where, nodes)
	}
	return nil
}

// checkLinkName validates a scenario link name against the platform's
// topology without building a system; it mirrors lustre.System.LinkByName.
func checkLinkName(plat *cluster.Platform, name string) error {
	if name == "backbone" {
		return nil
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
			return fmt.Errorf("bad link name %q", name)
		}
		if i < 0 || i >= g.limit {
			return fmt.Errorf("link %q out of range [0,%d)", name, g.limit)
		}
		return nil
	}
	if strings.HasPrefix(name, "ost") {
		return fmt.Errorf("OST links carry the service model; use ost_health, not link_capacity, for %q", name)
	}
	return fmt.Errorf("unknown link %q (backbone, nic<i>, oss<i>)", name)
}

// InstrumentShard returns the instrument hook that schedules the file's
// timeline events targeting shard onto a freshly built system. Pass
// shard -1 for a monolithic run. Events schedule in file order at
// engine-build time, so two equal event times fire in file order — the
// same determinism contract as hand-written eng.ScheduleAt calls.
func (f *File) InstrumentShard(shard int) func(*lustre.System) {
	return func(sys *lustre.System) {
		eng := sys.Engine()
		for i := range f.Timeline {
			ev := &f.Timeline[i]
			if ev.Shard != shard {
				continue
			}
			switch ev.Kind {
			case EvOSTHealth:
				ost, factor := ev.OST, ev.Factor
				eng.ScheduleAt(ev.At, func() { sys.OST(ost).SetHealth(factor) })
			case EvOSTFail:
				ost := ev.OST
				eng.ScheduleAt(ev.At, func() { sys.OST(ost).SetHealth(0) })
			case EvOSTRecover:
				ost, factor := ev.OST, ev.Factor
				eng.ScheduleAt(ev.At, func() { sys.OST(ost).SetHealth(factor) })
			case EvLinkCapacity:
				name, mbs := ev.Link, ev.MBs
				eng.ScheduleAt(ev.At, func() {
					link, err := sys.LinkByName(name)
					if err != nil {
						// Validate checked the name against the platform; only
						// a Validate-skipping caller can reach this.
						panic(err)
					}
					link.SetModel(flow.Const(mbs))
				})
			case EvRebuild:
				ev := ev
				eng.ScheduleAt(ev.At, func() {
					sys.StartRebuild(ev.OST, lustre.RebuildOpts{
						SizeMB:  ev.RebuildMB,
						Streams: ev.Streams,
						RateMBs: ev.RateMBs,
						Sources: ev.Sources,
					})
				})
			case EvShardOutage:
				factor, restore := ev.Factor, ev.RestoreFactor
				eng.ScheduleAt(ev.At, func() { sys.SetAllOSTHealth(factor) })
				eng.ScheduleAt(ev.Until, func() { sys.SetAllOSTHealth(restore) })
			}
		}
	}
}
