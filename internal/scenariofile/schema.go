package scenariofile

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"pfsim/internal/ior"
)

// File is one parsed declarative scenario: a platform, a fleet of
// workloads (hand-listed and/or generator-expanded), an optional fault
// timeline, and an assertion block evaluated against the run's result.
type File struct {
	// Name titles the scenario and seeds its RNG stream.
	Name string
	// Description documents the study the file encodes.
	Description string
	// Path is the source file ("" for in-memory documents).
	Path string
	// Platform selects and optionally overrides a platform preset.
	Platform PlatformSpec
	// Horizon bounds the timeline: events after it are rejected at
	// validate time. 0 means unbounded.
	Horizon float64
	// Baselines forces solo-baseline runs on (slowdown figures) or off;
	// nil auto-enables them exactly when an assertion needs slowdowns.
	Baselines *bool
	// Fleet is the monolithic job list. Mutually exclusive with Shards.
	Fleet []FleetEntry
	// Shards describes a sharded multi-file-system run.
	Shards []ShardSpec
	// Timeline is the timed fault/chaos event list.
	Timeline []Event
	// Assert is the file's self-check block.
	Assert AssertBlock
}

// PlatformSpec selects a preset and optional overrides. Zero-valued
// override fields keep the preset's value (JitterCV is a pointer since
// zero — jitter off — is meaningful).
type PlatformSpec struct {
	Preset      string // "cab" (default) or "stampede"
	Seed        uint64
	Nodes       int
	OSTs        int
	OSSs        int
	BackboneMBs float64
	NICMBs      float64
	OSSMBs      float64
	JitterCV    *float64
}

// FleetEntry is one fleet item: exactly one of IOR, PLFS, Checkpoint or
// Gen is set. Count stamps replicas (start times staggered by
// StartStagger); placement and stripe hints ride on the workload.Job.
type FleetEntry struct {
	IOR        *IORSpec
	PLFS       *PLFSSpec
	Checkpoint *CheckpointSpec
	Gen        *GeneratorSpec

	Count        int
	StartAt      float64
	StartStagger float64
	FirstNode    int
	Stripes      int
	StripeSizeMB float64
}

// IORSpec declares a striped IOR job (the paper's Sections IV/V shape).
type IORSpec struct {
	Label          string
	API            string // "" (= lustre), "ufs", "lustre", or "plfs"
	Tasks          int
	BlockMB        float64
	TransferMB     float64
	Segments       int
	Reps           int
	Collective     bool
	FilePerProc    bool
	ComputeSeconds float64
}

// PLFSSpec declares an n-rank PLFS logging job (Section VI shape).
type PLFSSpec struct {
	Label      string
	Ranks      int
	MBPerRank  float64
	TransferMB float64
	Reps       int
}

// CheckpointSpec declares a periodically checkpointing application.
type CheckpointSpec struct {
	Label          string
	Ranks          int
	StateMBPerRank float64
	ComputeSeconds float64
	Checkpoints    int
}

// GeneratorSpec expands a seeded distribution template into Count jobs —
// fleets of hundreds of writers from a few lines instead of hand-listed
// entries. Numeric fields accept either a constant or a distribution
// (`uniform: [lo, hi]`, `choice: [a, b, c]`, `normal: [mean, std]`);
// integer-valued fields round the draw.
type GeneratorSpec struct {
	Kind  string // "ior", "plfs" or "checkpoint"
	Count int
	Seed  uint64 // 0 derives a stream from the scenario name and entry index
	Label string // label prefix; jobs are "<label>-g<i>"

	Tasks          *Dist // ior tasks / plfs+checkpoint ranks
	BlockMB        *Dist
	TransferMB     *Dist
	Segments       *Dist
	Reps           *Dist
	MBPerRank      *Dist
	StateMB        *Dist
	ComputeSeconds *Dist
	Checkpoints    *Dist
	Collective     *bool
	FilePerProc    *bool

	StartAt      *Dist
	Stripes      *Dist
	StripeSizeMB *Dist
}

// Dist is a numeric distribution spec.
type Dist struct {
	Kind    string // "const", "uniform", "choice", "normal"
	A, B    float64
	Choices []float64
}

// ShardSpec is one file system of a sharded run.
type ShardSpec struct {
	// Name labels the shard ("fs<i>" when empty); replicas get "-r<j>".
	Name string
	// Replicate stamps this many copies (default 1).
	Replicate int
	// Fleet is the shard's job list.
	Fleet []FleetEntry
}

// Event kinds understood by the timeline compiler.
const (
	EvOSTHealth    = "ost_health"
	EvOSTFail      = "ost_fail"
	EvOSTRecover   = "ost_recover"
	EvLinkCapacity = "link_capacity"
	EvRebuild      = "rebuild"
	EvShardOutage  = "shard_outage"
)

// Event is one timed fault/chaos action. At is virtual seconds from
// scenario start; which other fields are meaningful depends on Kind.
type Event struct {
	At   float64
	Kind string
	// Shard targets one shard of a sharded run (-1: the monolithic
	// system; required for every event in sharded files).
	Shard int
	// OST is the target index for ost_* and rebuild events.
	OST int
	// Factor is the health factor for ost_health/ost_recover and the
	// outage level for shard_outage.
	Factor float64
	// Link names a capacity-swap target: "backbone", "nic<i>" or
	// "oss<i>" (OST links carry the health-managed service model and are
	// addressed through ost_health instead).
	Link string
	// MBs is the replacement capacity for link_capacity.
	MBs float64
	// RebuildMB / Streams / RateMBs / Sources shape rebuild traffic.
	RebuildMB float64
	Streams   int
	RateMBs   float64
	Sources   []int
	// Until / RestoreFactor bound a shard_outage window.
	Until         float64
	RestoreFactor float64
}

// Bound is a [Min, Max] assertion on one scalar; either side optional.
type Bound struct {
	Min, Max       float64
	HasMin, HasMax bool
}

// set reports whether the bound constrains anything.
func (b Bound) set() bool { return b.HasMin || b.HasMax }

// check returns "" when v satisfies the bound, else a failure clause.
func (b Bound) check(what string, v float64) string {
	if b.HasMin && v < b.Min {
		return fmt.Sprintf("%s = %.4g below min %.4g", what, v, b.Min)
	}
	if b.HasMax && v > b.Max {
		return fmt.Sprintf("%s = %.4g above max %.4g", what, v, b.Max)
	}
	return ""
}

// AssertBlock is a scenario's self-check: bounds on aggregate bandwidth,
// timing, slowdown, solver counters, and per-job / per-shard figures.
type AssertBlock struct {
	Makespan     Bound
	TotalMBs     Bound
	MeanMBs      Bound
	MinJobMBs    Bound // bound on the slowest job's mean bandwidth
	MaxJobMBs    Bound
	MeanSlowdown Bound
	MaxSlowdown  Bound
	Solver       []CounterAssert
	Jobs         []JobAssert
	Shards       []ShardAssert
}

// CounterAssert bounds one flow.Stats solver counter by name.
type CounterAssert struct {
	Name  string
	Bound Bound
}

// solverCounters lists the assertable flow.Stats counters, in the order
// they are reported.
var solverCounters = []string{
	"solves", "components_solved", "component_flows_scanned",
	"link_visits", "coalesced", "rounds", "flows_scanned",
	"flows_settled", "heap_ops",
}

// JobAssert bounds one or more jobs' figures. Job matches a label
// exactly, or a label prefix when it ends in '*'; at least one job must
// match or the assertion fails.
type JobAssert struct {
	Job      string
	Shard    int // -1: all shards
	MBs      Bound
	Slowdown Bound
	Finished Bound // bound on the job's finish time
}

// Count returns the number of declared assertions: set scalar bounds
// plus solver, per-job and per-shard entries. Zero means the file is
// informational only.
func (a *AssertBlock) Count() int {
	n := 0
	for _, b := range []Bound{
		a.Makespan, a.TotalMBs, a.MeanMBs, a.MinJobMBs, a.MaxJobMBs,
		a.MeanSlowdown, a.MaxSlowdown,
	} {
		if b.set() {
			n++
		}
	}
	return n + len(a.Solver) + len(a.Jobs) + len(a.Shards)
}

// ShardAssert bounds one shard's aggregate figures.
type ShardAssert struct {
	Shard    int
	TotalMBs Bound
	MeanMBs  Bound
	Makespan Bound
}

// Sharded reports whether the file declares a sharded run.
func (f *File) Sharded() bool { return len(f.Shards) > 0 }

// ShardCount returns the expanded shard population.
func (f *File) ShardCount() int {
	n := 0
	for i := range f.Shards {
		r := f.Shards[i].Replicate
		if r < 1 {
			r = 1
		}
		n += r
	}
	return n
}

// needsBaselines reports whether any assertion reads slowdown figures.
func (f *File) needsBaselines() bool {
	if f.Baselines != nil {
		return *f.Baselines
	}
	if f.Assert.MeanSlowdown.set() || f.Assert.MaxSlowdown.set() {
		return true
	}
	for i := range f.Assert.Jobs {
		if f.Assert.Jobs[i].Slowdown.set() {
			return true
		}
	}
	return false
}

// Load reads and parses a scenario file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Parse(data, filepath.ToSlash(path))
	if err != nil {
		return nil, err
	}
	f.Path = path
	return f, nil
}

// Parse decodes a scenario document (YAML subset or JSON) with strict
// unknown-key checking, then statically validates it: malformed event
// times (negative, NaN, past the horizon), out-of-range health factors
// and distribution specs are rejected here, not mid-run. Platform-
// dependent checks (OST indices, node capacity) happen in Validate.
func Parse(data []byte, name string) (*File, error) {
	root, err := parseAny(data, name)
	if err != nil {
		return nil, err
	}
	// The deepest nesting, a generator in a shard, stacks 33 read keys.
	d := &dec{name: name, read: make([]string, 0, 40)}
	s := section{d: d}
	if s.m, _ = root.(*Map); s.m == nil {
		s.fail("", "expected a mapping, got %s", typeName(root))
		return nil, d.err
	}
	f := &File{
		Name:        s.str("name", ""),
		Description: s.str("description", ""),
	}
	if p, ok := s.child("platform"); ok {
		f.Platform = platform(&p)
	}
	if f.Platform.Preset == "" {
		f.Platform.Preset = "cab"
	}
	f.Horizon = s.num("horizon", 0)
	if f.Horizon < 0 || math.IsInf(f.Horizon, 0) {
		s.fail("horizon", "must be a finite value >= 0, got %v", f.Horizon)
	}
	if b, ok := s.optBool("baselines"); ok {
		f.Baselines = &b
	}
	f.Fleet = fleet(&s, "fleet")
	f.Shards = shards(&s)
	if f.Sharded() && d.err == nil {
		plat := preset(f.Platform.Preset)
		nodes, osts := cmp.Or(f.Platform.Nodes, plat.Nodes), cmp.Or(f.Platform.OSTs, plat.OSTs)
		if links := f.ShardCount() * (nodes + osts); links > maxShardedLinks {
			s.failIn("shards", "the expanded shards hold %d nodes and OSTs in total, past the limit of %d",
				links, maxShardedLinks)
		}
	}
	f.Timeline = timeline(&s, f)
	if a, ok := s.child("assert"); ok {
		f.Assert = assertBlock(&a, f)
	}
	s.done()
	if f.Name == "" {
		s.fail("", `missing required key "name"`)
	} else if (f.Fleet == nil) == (f.Shards == nil) {
		s.fail("", `exactly one of "fleet" and "shards" must be set`)
	}
	if d.err != nil {
		return nil, d.err
	}
	return f, nil
}

// Bounds on the system a document may describe, checked by Parse. A run
// builds its whole topology before the first event — a NIC link per
// node and a link per OST, in every shard, at about 225 and 360 bytes
// each — so a document past them would validate only to exhaust memory
// when run. The presets sit far below them: Stampede has 6,400 nodes and
// Cab 480 OSTs.
const (
	maxNodes  = 1 << 16 // platform.nodes
	maxOSTs   = 1 << 14 // platform.osts
	maxShards = 1 << 12 // shards, after replicate expands them
	// maxShardedLinks bounds a sharded run's nodes plus OSTs summed over
	// its expanded shards: about 400 MB of links at the limit.
	maxShardedLinks = 1 << 20
	// maxRebuildStreams bounds a rebuild's streams, each a flow built
	// when the rebuild starts, inside an engine event.
	maxRebuildStreams = 1 << 12
)

// platform decodes the platform section.
func platform(s *section) PlatformSpec {
	// Zero sizes and bandwidths keep the preset's value.
	p := PlatformSpec{
		Preset:      s.str("preset", "cab"),
		Seed:        uint64(s.atLeast("seed", 0, 0)),
		Nodes:       s.atLeast("nodes", 0, 0),
		OSTs:        s.atLeast("osts", 0, 0),
		OSSs:        s.atLeast("osss", 0, 0),
		BackboneMBs: s.num("backbone_mbs", 0),
		NICMBs:      s.num("nic_mbs", 0),
		OSSMBs:      s.num("oss_mbs", 0),
	}
	if p.Preset != "cab" && p.Preset != "stampede" {
		s.fail("preset", "unknown preset %q (cab, stampede)", p.Preset)
	}
	if p.Nodes > maxNodes {
		s.fail("nodes", "must be <= %d, got %d", maxNodes, p.Nodes)
	}
	if p.OSTs > maxOSTs {
		s.fail("osts", "must be <= %d, got %d", maxOSTs, p.OSTs)
	}
	for _, bw := range [...]struct {
		key string
		mbs float64
	}{{"backbone_mbs", p.BackboneMBs}, {"nic_mbs", p.NICMBs}, {"oss_mbs", p.OSSMBs}} {
		if bw.mbs < 0 || math.IsInf(bw.mbs, 0) {
			s.fail(bw.key, "must be finite and >= 0 (0 = preset default), got %v", bw.mbs)
		}
	}
	if cv, ok := s.optNum("jitter_cv"); ok {
		p.JitterCV = &cv
	}
	s.done()
	return p
}

// shards decodes the shards section.
func shards(s *section) []ShardSpec {
	list := s.list("shards")
	if list == nil {
		return nil
	}
	if len(list) == 0 {
		s.failIn("shards", "must list at least one shard")
	}
	out := make([]ShardSpec, len(list))
	expanded := 0
	for i, v := range list {
		e := s.mapping("shards", i, v)
		out[i].Name = e.str("name", "")
		out[i].Replicate = e.atLeast("replicate", 1, 1)
		if out[i].Replicate > maxShards-expanded {
			e.fail("", "expands the run past %d shards", maxShards)
		}
		expanded += out[i].Replicate
		out[i].Fleet = fleet(&e, "fleet")
		if e.done() == nil && out[i].Fleet == nil {
			e.fail("", `missing required key "fleet"`)
		}
	}
	return out
}

// fleet decodes the fleet list at key; nil when unset.
func fleet(s *section, key string) []FleetEntry {
	list := s.list(key)
	if list == nil {
		return nil
	}
	if len(list) == 0 {
		s.failIn(key, "must list at least one entry")
	}
	out := make([]FleetEntry, len(list))
	for i, v := range list {
		e := s.mapping(key, i, v)
		fleetEntry(&e, &out[i])
	}
	return out
}

// fleetEntry decodes one fleet item.
func fleetEntry(s *section, out *FleetEntry) {
	kinds := 0
	for _, k := range [...]string{"ior", "plfs", "checkpoint", "generator"} {
		v, ok := s.value(k)
		if !ok {
			continue
		}
		kinds++
		w := s.mapping(k, -1, v)
		switch k {
		case "ior":
			out.IOR = iorSpec(&w)
		case "plfs":
			out.PLFS = plfsSpec(&w)
		case "checkpoint":
			out.Checkpoint = checkpointSpec(&w)
		default:
			out.Gen = generatorSpec(&w)
		}
	}
	out.Count = s.atLeast("count", 1, 1)
	if out.Gen != nil && out.Count != 1 {
		s.fail("count", "generators expand via generator.count; entry count must stay 1")
	}
	for _, t := range [...]struct {
		key string
		dst *float64
	}{{"start_at", &out.StartAt}, {"start_stagger", &out.StartStagger}} {
		*t.dst = s.num(t.key, 0)
		if *t.dst < 0 {
			s.fail(t.key, "must be >= 0, got %v", *t.dst)
		} else if math.IsInf(*t.dst, 0) {
			s.fail(t.key, "must be finite, got %v", *t.dst)
		}
	}
	out.FirstNode = s.atLeast("first_node", 0, 0)
	out.Stripes = s.atLeast("stripes", 0, 0)
	out.StripeSizeMB = s.num("stripe_size_mb", 0)
	if out.StripeSizeMB < 0 || math.IsInf(out.StripeSizeMB, 0) {
		s.fail("stripe_size_mb", "must be finite and >= 0 (0 = default), got %v", out.StripeSizeMB)
	}
	if out.Gen != nil {
		for _, f := range [...]struct {
			set bool
			key string
		}{
			{out.StartAt != 0, "start_at"},
			{out.StartStagger != 0, "start_stagger"},
			{out.FirstNode != 0, "first_node"},
			{out.Stripes != 0, "stripes"},
			{out.StripeSizeMB != 0, "stripe_size_mb"},
		} {
			if f.set {
				s.fail(f.key, "set %s inside the generator block (as a distribution) instead", f.key)
			}
		}
	}
	if s.done() == nil && kinds != 1 {
		s.fail("", "exactly one workload kind (ior, plfs, checkpoint, generator) per entry, got %d", kinds)
	}
}

// iorSpec decodes an ior workload block.
func iorSpec(s *section) *IORSpec {
	out := &IORSpec{
		Label:          s.str("label", ""),
		API:            s.str("api", ""),
		Tasks:          s.atLeast("tasks", 0, 1),
		BlockMB:        s.num("block_mb", 4),
		TransferMB:     s.num("transfer_mb", 1),
		Segments:       s.integer("segments", 10),
		Reps:           s.integer("reps", 1),
		Collective:     s.boolean("collective", true),
		FilePerProc:    s.boolean("file_per_proc", false),
		ComputeSeconds: s.num("compute_seconds", 0),
	}
	switch out.API {
	case "", "ufs", "lustre", "plfs":
	default:
		s.fail("api", "must be ufs, lustre, or plfs, got %q", out.API)
	}
	if out.Reps > ior.MaxReps {
		s.fail("reps", "must be <= %d, got %d", ior.MaxReps, out.Reps)
	}
	s.done()
	return out
}

// plfsSpec decodes a plfs workload block.
func plfsSpec(s *section) *PLFSSpec {
	out := &PLFSSpec{
		Label:      s.str("label", ""),
		Ranks:      s.atLeast("ranks", 0, 1),
		MBPerRank:  s.num("mb_per_rank", 0),
		TransferMB: s.num("transfer_mb", 0),
		Reps:       s.atLeast("reps", 1, 1),
	}
	for _, v := range [...]struct {
		key string
		mb  float64
	}{{"mb_per_rank", out.MBPerRank}, {"transfer_mb", out.TransferMB}} {
		if v.mb < 0 || math.IsInf(v.mb, 0) {
			s.fail(v.key, "must be finite and >= 0 (0 = default), got %v", v.mb)
		}
	}
	if out.Reps > ior.MaxReps {
		s.fail("reps", "must be <= %d, got %d", ior.MaxReps, out.Reps)
	}
	s.done()
	return out
}

// checkpointSpec decodes a checkpoint workload block.
func checkpointSpec(s *section) *CheckpointSpec {
	out := &CheckpointSpec{
		Label:          s.str("label", ""),
		Ranks:          s.atLeast("ranks", 0, 1),
		StateMBPerRank: s.num("state_mb_per_rank", 0),
		ComputeSeconds: s.num("compute_seconds", 0),
		Checkpoints:    s.atLeast("checkpoints", 1, 1),
	}
	if out.StateMBPerRank <= 0 {
		s.fail("state_mb_per_rank", "must be > 0, got %v", out.StateMBPerRank)
	}
	if out.ComputeSeconds < 0 {
		s.fail("compute_seconds", "must be >= 0, got %v", out.ComputeSeconds)
	}
	if out.Checkpoints > ior.MaxReps {
		s.fail("checkpoints", "must be <= %d, got %d", ior.MaxReps, out.Checkpoints)
	}
	s.done()
	return out
}

// generatorSpec decodes a generator block.
func generatorSpec(s *section) *GeneratorSpec {
	g := &GeneratorSpec{Kind: s.str("kind", "ior")}
	if g.Kind != "ior" && g.Kind != "plfs" && g.Kind != "checkpoint" {
		s.fail("kind", "unknown kind %q (ior, plfs, checkpoint)", g.Kind)
	}
	g.Count = s.atLeast("count", 0, 1)
	g.Seed = uint64(s.atLeast("seed", 0, 0))
	g.Label = s.str("label", g.Kind)
	// field reads a distribution that only the listed workload kinds take
	// (any kind when none are listed).
	field := func(key string, kinds ...string) *Dist {
		d := s.dist(key)
		if d != nil && len(kinds) > 0 && !slices.Contains(kinds, g.Kind) {
			s.fail(key, "not a %s generator field", g.Kind)
		}
		return d
	}
	g.Tasks = field("tasks", "ior")
	if r := field("ranks", "plfs", "checkpoint"); r != nil {
		g.Tasks = r
	}
	g.BlockMB = field("block_mb", "ior")
	g.TransferMB = field("transfer_mb", "ior", "plfs")
	g.Segments = field("segments", "ior")
	g.Reps = field("reps", "ior", "plfs")
	g.MBPerRank = field("mb_per_rank", "plfs")
	g.StateMB = field("state_mb_per_rank", "checkpoint")
	g.ComputeSeconds = field("compute_seconds", "ior", "checkpoint")
	g.Checkpoints = field("checkpoints", "checkpoint")
	for _, b := range [...]struct {
		key string
		dst **bool
	}{{"collective", &g.Collective}, {"file_per_proc", &g.FilePerProc}} {
		if v, ok := s.optBool(b.key); ok {
			*b.dst = &v
			if g.Kind != "ior" {
				s.fail(b.key, "not a %s generator field", g.Kind)
			}
		}
	}
	g.StartAt = field("start_at")
	g.Stripes = field("stripes")
	g.StripeSizeMB = field("stripe_size_mb")
	s.done()
	if g.Tasks == nil {
		need := "tasks"
		if g.Kind != "ior" {
			need = "ranks"
		}
		s.fail("", "missing required key %q", need)
	} else if g.Kind == "checkpoint" && g.StateMB == nil {
		s.fail("", `missing required key "state_mb_per_rank"`)
	}
	return g
}

// timeline decodes and statically validates the event list.
func timeline(s *section, f *File) []Event {
	list := s.list("timeline")
	if list == nil {
		return nil
	}
	out := make([]Event, len(list))
	for i, v := range list {
		e := s.mapping("timeline", i, v)
		event(&e, f, &out[i])
	}
	return out
}

// event decodes one timeline entry: an `at` time plus exactly one action
// key. Every malformed time, factor or index this rejects would
// otherwise surface as a mid-run panic or a silently wrong simulation.
func event(s *section, f *File, ev *Event) {
	hasAt := s.present("at")
	ev.At = s.num("at", 0)
	if ev.At < 0 || math.IsInf(ev.At, 0) {
		s.fail("at", "event time must be finite and >= 0, got %v", ev.At)
	}
	if f.Horizon > 0 && ev.At > f.Horizon {
		s.fail("at", "event time %v is past the scenario horizon %v", ev.At, f.Horizon)
	}
	actions := 0
	var action any
	for _, k := range [...]string{EvOSTHealth, EvOSTFail, EvOSTRecover, EvLinkCapacity, EvRebuild, EvShardOutage} {
		if v, ok := s.value(k); ok {
			ev.Kind, action = k, v
			actions++
		}
	}
	s.done()
	if !hasAt {
		s.fail("", `missing required key "at"`)
	} else if actions != 1 {
		s.fail("", "exactly one action per event, got %d", actions)
	}
	a := s.mapping(ev.Kind, -1, action)
	if ev.Kind == EvShardOutage && !f.Sharded() {
		a.fail("", "shard_outage requires a sharded scenario")
	}
	ev.Shard = a.integer("shard", -1)
	if f.Sharded() && ev.Shard >= f.ShardCount() {
		a.fail("shard", "shard %d out of range [0,%d)", ev.Shard, f.ShardCount())
	} else if !f.Sharded() && ev.Shard >= 0 {
		a.fail("shard", "scenario has no shards")
	}
	hasFactor, hasUntil := a.present("factor"), a.present("until")
	switch ev.Kind {
	case EvOSTHealth:
		ev.OST = a.integer("ost", -1)
		ev.Factor = healthFactor(&a, "factor", 0)
	case EvOSTFail:
		ev.OST = a.integer("ost", -1)
	case EvOSTRecover:
		ev.OST = a.integer("ost", -1)
		ev.Factor = healthFactor(&a, "factor", 1)
	case EvLinkCapacity:
		ev.Link = a.str("link", "")
		ev.MBs = a.num("mbs", 0)
		if ev.MBs <= 0 || math.IsInf(ev.MBs, 0) {
			a.fail("mbs", "capacity must be finite and > 0, got %v", ev.MBs)
		}
	case EvRebuild:
		rebuild(&a, ev)
	case EvShardOutage:
		ev.Until = a.num("until", 0)
		if hasUntil && (ev.Until <= ev.At || math.IsInf(ev.Until, 0)) {
			a.fail("until", "must be finite and after the event time %v, got %v", ev.At, ev.Until)
		}
		if f.Horizon > 0 && ev.Until > f.Horizon {
			a.fail("until", "recovery time %v is past the scenario horizon %v", ev.Until, f.Horizon)
		}
		ev.Factor = healthFactor(&a, "factor", 0)
		ev.RestoreFactor = healthFactor(&a, "restore_factor", 1)
	}
	a.done()
	switch {
	case f.Sharded() && ev.Shard < 0:
		a.fail("", "sharded scenarios must name the target shard")
	case ev.OST < 0:
		a.fail("", `missing required key "ost"`)
	case ev.Kind == EvOSTHealth && !hasFactor:
		a.fail("", `missing required key "factor"`)
	case ev.Kind == EvLinkCapacity && ev.Link == "":
		a.fail("", `missing required key "link"`)
	case ev.Kind == EvShardOutage && !hasUntil:
		a.fail("", `missing required key "until"`)
	}
}

// healthFactor reads an OST health factor, which must lie in [0, 1].
func healthFactor(s *section, key string, def float64) float64 {
	v := s.num(key, def)
	if v < 0 || v > 1 {
		s.fail(key, "health factor must be in [0, 1], got %v", v)
	}
	return v
}

// rebuild decodes a rebuild action's target, volume, streams, rate and
// source OSTs.
func rebuild(s *section, ev *Event) {
	ev.OST = s.integer("ost", -1)
	ev.RebuildMB = s.num("mb", 0)
	if ev.RebuildMB <= 0 {
		s.fail("mb", "rebuild volume must be > 0, got %v", ev.RebuildMB)
	} else if math.IsInf(ev.RebuildMB, 1) {
		s.fail("mb", "rebuild volume must be finite, got %v", ev.RebuildMB)
	}
	ev.Streams = s.atLeast("streams", 4, 1)
	if ev.Streams > maxRebuildStreams {
		s.fail("streams", "must be <= %d, got %d", maxRebuildStreams, ev.Streams)
	}
	ev.RateMBs = s.num("rate_mbs", 0)
	if ev.RateMBs < 0 {
		s.fail("rate_mbs", "must be >= 0 (0 = uncapped), got %v", ev.RateMBs)
	} else if math.IsInf(ev.RateMBs, 1) {
		s.fail("rate_mbs", "must be finite (0 = uncapped), got %v", ev.RateMBs)
	}
	list := s.list("from")
	if list == nil {
		return
	}
	ev.Sources = make([]int, len(list))
	for i, v := range list {
		src, err := asInt(v)
		switch {
		case err != nil:
			s.fail(fmt.Sprintf("from[%d]", i), "%v", err)
		case src < 0:
			s.fail("from", "OST index must be >= 0, got %d", src)
		case src == ev.OST:
			s.fail("from", "source OST %d is the rebuild target", src)
		}
		ev.Sources[i] = src
	}
}

// assertBlock decodes the assertion block.
func assertBlock(s *section, f *File) AssertBlock {
	out := AssertBlock{
		Makespan:     bound(s, "makespan"),
		TotalMBs:     bound(s, "total_mbs"),
		MeanMBs:      bound(s, "mean_mbs"),
		MinJobMBs:    bound(s, "min_job_mbs"),
		MaxJobMBs:    bound(s, "max_job_mbs"),
		MeanSlowdown: bound(s, "mean_slowdown"),
		MaxSlowdown:  bound(s, "max_slowdown"),
	}
	if c, ok := s.child("solver"); ok {
		for _, name := range solverCounters {
			if b := bound(&c, name); b.set() {
				out.Solver = append(out.Solver, CounterAssert{Name: name, Bound: b})
			}
		}
		c.done()
	}
	for i, v := range s.list("jobs") {
		j := s.mapping("jobs", i, v)
		ja := JobAssert{Job: j.str("job", ""), Shard: j.integer("shard", -1)}
		if ja.Shard >= 0 && !f.Sharded() {
			j.fail("shard", "scenario has no shards")
		} else if ja.Shard >= f.ShardCount() && f.Sharded() {
			j.fail("shard", "shard %d out of range [0,%d)", ja.Shard, f.ShardCount())
		}
		ja.MBs = bound(&j, "mbs")
		ja.Slowdown = bound(&j, "slowdown")
		ja.Finished = bound(&j, "finished")
		j.done()
		if ja.Job == "" {
			j.fail("", `missing required key "job"`)
		} else if !ja.MBs.set() && !ja.Slowdown.set() && !ja.Finished.set() {
			j.fail("", "asserts nothing (set mbs, slowdown or finished)")
		}
		out.Jobs = append(out.Jobs, ja)
	}
	list := s.list("shards")
	if list != nil && !f.Sharded() {
		s.failIn("shards", "scenario has no shards")
	}
	for i, v := range list {
		e := s.mapping("shards", i, v)
		sa := ShardAssert{Shard: e.integer("shard", -1)}
		if sa.Shard < 0 || sa.Shard >= f.ShardCount() {
			e.fail("shard", "shard index out of range [0,%d)", f.ShardCount())
		}
		sa.TotalMBs = bound(&e, "total_mbs")
		sa.MeanMBs = bound(&e, "mean_mbs")
		sa.Makespan = bound(&e, "makespan")
		e.done()
		out.Shards = append(out.Shards, sa)
	}
	s.done()
	return out
}

// bound decodes the optional {min, max} block at key.
func bound(s *section, key string) Bound {
	var b Bound
	c, ok := s.child(key)
	if !ok {
		return b
	}
	b.Min, b.HasMin = c.optNum("min")
	b.Max, b.HasMax = c.optNum("max")
	c.done()
	if !b.set() {
		c.fail("", "bound needs min, max or both")
	} else if b.HasMin && b.HasMax && b.Min > b.Max {
		c.fail("", "min %v exceeds max %v", b.Min, b.Max)
	}
	return b
}
