package scenariofile

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
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

// kindName names the entry's workload kind for errors.
func (e *FleetEntry) kindName() string {
	switch {
	case e.IOR != nil:
		return "ior"
	case e.PLFS != nil:
		return "plfs"
	case e.Checkpoint != nil:
		return "checkpoint"
	case e.Gen != nil:
		return "generator"
	}
	return "?"
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
	d := &dec{name: name}
	m, err := d.mapAt(root, "document")
	if err != nil {
		return nil, err
	}
	if err := d.strict(m, "document",
		"name", "description", "platform", "horizon", "baselines",
		"fleet", "shards", "timeline", "assert"); err != nil {
		return nil, err
	}
	f := &File{}
	if f.Name, err = d.str(m, "document", "name", ""); err != nil {
		return nil, err
	}
	if f.Name == "" {
		return nil, d.errf("document", "missing required key \"name\"")
	}
	if f.Description, err = d.str(m, "document", "description", ""); err != nil {
		return nil, err
	}
	if f.Horizon, err = d.f64(m, "document", "horizon", 0); err != nil {
		return nil, err
	}
	if f.Horizon < 0 || math.IsInf(f.Horizon, 0) {
		return nil, d.errf("document.horizon", "must be a finite value >= 0, got %v", f.Horizon)
	}
	if v, ok := m.Get("baselines"); ok && v != nil {
		b, ok := v.(bool)
		if !ok {
			return nil, d.errf("document.baselines", "expected a bool, got %s", typeName(v))
		}
		f.Baselines = &b
	}
	if v, ok := m.Get("platform"); ok && v != nil {
		if f.Platform, err = d.platform(v); err != nil {
			return nil, err
		}
	}
	if f.Platform.Preset == "" {
		f.Platform.Preset = "cab"
	}
	hasFleet, hasShards := false, false
	if v, ok := m.Get("fleet"); ok && v != nil {
		hasFleet = true
		if f.Fleet, err = d.fleet(v, "fleet"); err != nil {
			return nil, err
		}
	}
	if v, ok := m.Get("shards"); ok && v != nil {
		hasShards = true
		if f.Shards, err = d.shards(v); err != nil {
			return nil, err
		}
	}
	if hasFleet == hasShards {
		return nil, d.errf("document", "exactly one of \"fleet\" and \"shards\" must be set")
	}
	if v, ok := m.Get("timeline"); ok && v != nil {
		if f.Timeline, err = d.timeline(v, f); err != nil {
			return nil, err
		}
	}
	if v, ok := m.Get("assert"); ok && v != nil {
		if f.Assert, err = d.assert(v, f); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// platform decodes the platform section.
func (d *dec) platform(v any) (PlatformSpec, error) {
	var out PlatformSpec
	m, err := d.mapAt(v, "platform")
	if err != nil {
		return out, err
	}
	if err := d.strict(m, "platform",
		"preset", "seed", "nodes", "osts", "osss",
		"backbone_mbs", "nic_mbs", "oss_mbs", "jitter_cv"); err != nil {
		return out, err
	}
	if out.Preset, err = d.str(m, "platform", "preset", "cab"); err != nil {
		return out, err
	}
	if out.Preset != "cab" && out.Preset != "stampede" {
		return out, d.errf("platform.preset", "unknown preset %q (cab, stampede)", out.Preset)
	}
	seed, err := d.integer(m, "platform", "seed", 0)
	if err != nil {
		return out, err
	}
	if seed < 0 {
		return out, d.errf("platform.seed", "must be >= 0, got %d", seed)
	}
	out.Seed = uint64(seed)
	if out.Nodes, err = d.integer(m, "platform", "nodes", 0); err != nil {
		return out, err
	}
	if out.OSTs, err = d.integer(m, "platform", "osts", 0); err != nil {
		return out, err
	}
	if out.OSSs, err = d.integer(m, "platform", "osss", 0); err != nil {
		return out, err
	}
	for _, bw := range []struct {
		key string
		dst *float64
	}{
		{"backbone_mbs", &out.BackboneMBs},
		{"nic_mbs", &out.NICMBs},
		{"oss_mbs", &out.OSSMBs},
	} {
		if *bw.dst, err = d.f64(m, "platform", bw.key, 0); err != nil {
			return out, err
		}
		if *bw.dst < 0 || math.IsInf(*bw.dst, 0) {
			return out, d.errf("platform."+bw.key, "must be finite and >= 0 (0 = preset default), got %v", *bw.dst)
		}
	}
	if v, ok := m.Get("jitter_cv"); ok && v != nil {
		cv, err := asFloat(v)
		if err != nil {
			return out, d.errf("platform.jitter_cv", "%v", err)
		}
		out.JitterCV = &cv
	}
	return out, nil
}

// shards decodes the shards section.
func (d *dec) shards(v any) ([]ShardSpec, error) {
	list, err := d.listAt(v, "shards")
	if err != nil {
		return nil, err
	}
	if len(list) == 0 {
		return nil, d.errf("shards", "must list at least one shard")
	}
	out := make([]ShardSpec, len(list))
	for i, e := range list {
		path := fmt.Sprintf("shards[%d]", i)
		m, err := d.mapAt(e, path)
		if err != nil {
			return nil, err
		}
		if err := d.strict(m, path, "name", "replicate", "fleet"); err != nil {
			return nil, err
		}
		if out[i].Name, err = d.str(m, path, "name", ""); err != nil {
			return nil, err
		}
		if out[i].Replicate, err = d.integer(m, path, "replicate", 1); err != nil {
			return nil, err
		}
		if out[i].Replicate < 1 {
			return nil, d.errf(path+".replicate", "must be >= 1, got %d", out[i].Replicate)
		}
		fv, ok := m.Get("fleet")
		if !ok || fv == nil {
			return nil, d.errf(path, "missing required key \"fleet\"")
		}
		if out[i].Fleet, err = d.fleet(fv, path+".fleet"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fleet decodes one fleet section.
func (d *dec) fleet(v any, path string) ([]FleetEntry, error) {
	list, err := d.listAt(v, path)
	if err != nil {
		return nil, err
	}
	if len(list) == 0 {
		return nil, d.errf(path, "must list at least one entry")
	}
	out := make([]FleetEntry, len(list))
	for i, e := range list {
		p := fmt.Sprintf("%s[%d]", path, i)
		if err := d.fleetEntry(e, p, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fleetEntry decodes one fleet item.
func (d *dec) fleetEntry(v any, path string, out *FleetEntry) error {
	m, err := d.mapAt(v, path)
	if err != nil {
		return err
	}
	if err := d.strict(m, path,
		"ior", "plfs", "checkpoint", "generator",
		"count", "start_at", "start_stagger", "first_node",
		"stripes", "stripe_size_mb"); err != nil {
		return err
	}
	kinds := 0
	for _, k := range []string{"ior", "plfs", "checkpoint", "generator"} {
		if _, ok := m.Get(k); ok {
			kinds++
		}
	}
	if kinds != 1 {
		return d.errf(path, "exactly one workload kind (ior, plfs, checkpoint, generator) per entry, got %d", kinds)
	}
	if v, ok := m.Get("ior"); ok {
		if out.IOR, err = d.iorSpec(v, path+".ior"); err != nil {
			return err
		}
	}
	if v, ok := m.Get("plfs"); ok {
		if out.PLFS, err = d.plfsSpec(v, path+".plfs"); err != nil {
			return err
		}
	}
	if v, ok := m.Get("checkpoint"); ok {
		if out.Checkpoint, err = d.checkpointSpec(v, path+".checkpoint"); err != nil {
			return err
		}
	}
	if v, ok := m.Get("generator"); ok {
		if out.Gen, err = d.generatorSpec(v, path+".generator"); err != nil {
			return err
		}
	}
	if out.Count, err = d.integer(m, path, "count", 1); err != nil {
		return err
	}
	if out.Count < 1 {
		return d.errf(path+".count", "must be >= 1, got %d", out.Count)
	}
	if out.Gen != nil && out.Count != 1 {
		return d.errf(path+".count", "generators expand via generator.count; entry count must stay 1")
	}
	if out.StartAt, err = d.f64(m, path, "start_at", 0); err != nil {
		return err
	}
	if out.StartAt < 0 {
		return d.errf(path+".start_at", "must be >= 0, got %v", out.StartAt)
	}
	if out.StartStagger, err = d.f64(m, path, "start_stagger", 0); err != nil {
		return err
	}
	if out.StartStagger < 0 {
		return d.errf(path+".start_stagger", "must be >= 0, got %v", out.StartStagger)
	}
	if out.FirstNode, err = d.integer(m, path, "first_node", 0); err != nil {
		return err
	}
	if out.FirstNode < 0 {
		return d.errf(path+".first_node", "must be >= 0, got %d", out.FirstNode)
	}
	if out.Stripes, err = d.integer(m, path, "stripes", 0); err != nil {
		return err
	}
	if out.StripeSizeMB, err = d.f64(m, path, "stripe_size_mb", 0); err != nil {
		return err
	}
	if out.StripeSizeMB < 0 || math.IsInf(out.StripeSizeMB, 0) {
		return d.errf(path+".stripe_size_mb", "must be finite and >= 0 (0 = default), got %v", out.StripeSizeMB)
	}
	if out.Gen != nil {
		forbidden := []struct {
			set bool
			key string
		}{
			{out.StartAt != 0, "start_at"},
			{out.StartStagger != 0, "start_stagger"},
			{out.FirstNode != 0, "first_node"},
			{out.Stripes != 0, "stripes"},
			{out.StripeSizeMB != 0, "stripe_size_mb"},
		}
		for _, f := range forbidden {
			if f.set {
				return d.errf(path+"."+f.key, "set %s inside the generator block (as a distribution) instead", f.key)
			}
		}
	}
	return nil
}

// iorSpec decodes an ior workload block.
func (d *dec) iorSpec(v any, path string) (*IORSpec, error) {
	m, err := d.mapAt(v, path)
	if err != nil {
		return nil, err
	}
	if err := d.strict(m, path,
		"label", "api", "tasks", "block_mb", "transfer_mb", "segments", "reps",
		"collective", "file_per_proc", "compute_seconds"); err != nil {
		return nil, err
	}
	out := &IORSpec{}
	if out.Label, err = d.str(m, path, "label", ""); err != nil {
		return nil, err
	}
	if out.API, err = d.str(m, path, "api", ""); err != nil {
		return nil, err
	}
	switch out.API {
	case "", "ufs", "lustre", "plfs":
	default:
		return nil, d.errf(path+".api", "must be ufs, lustre, or plfs, got %q", out.API)
	}
	if out.Tasks, err = d.integer(m, path, "tasks", 0); err != nil {
		return nil, err
	}
	if out.Tasks < 1 {
		return nil, d.errf(path+".tasks", "must be >= 1, got %d", out.Tasks)
	}
	if out.BlockMB, err = d.f64(m, path, "block_mb", 4); err != nil {
		return nil, err
	}
	if out.TransferMB, err = d.f64(m, path, "transfer_mb", 1); err != nil {
		return nil, err
	}
	if out.Segments, err = d.integer(m, path, "segments", 10); err != nil {
		return nil, err
	}
	if out.Reps, err = d.integer(m, path, "reps", 1); err != nil {
		return nil, err
	}
	if out.Collective, err = d.boolean(m, path, "collective", true); err != nil {
		return nil, err
	}
	if out.FilePerProc, err = d.boolean(m, path, "file_per_proc", false); err != nil {
		return nil, err
	}
	if out.ComputeSeconds, err = d.f64(m, path, "compute_seconds", 0); err != nil {
		return nil, err
	}
	return out, nil
}

// plfsSpec decodes a plfs workload block.
func (d *dec) plfsSpec(v any, path string) (*PLFSSpec, error) {
	m, err := d.mapAt(v, path)
	if err != nil {
		return nil, err
	}
	if err := d.strict(m, path, "label", "ranks", "mb_per_rank", "transfer_mb", "reps"); err != nil {
		return nil, err
	}
	out := &PLFSSpec{}
	if out.Label, err = d.str(m, path, "label", ""); err != nil {
		return nil, err
	}
	if out.Ranks, err = d.integer(m, path, "ranks", 0); err != nil {
		return nil, err
	}
	if out.Ranks < 1 {
		return nil, d.errf(path+".ranks", "must be >= 1, got %d", out.Ranks)
	}
	if out.MBPerRank, err = d.f64(m, path, "mb_per_rank", 0); err != nil {
		return nil, err
	}
	if out.TransferMB, err = d.f64(m, path, "transfer_mb", 0); err != nil {
		return nil, err
	}
	if out.Reps, err = d.integer(m, path, "reps", 1); err != nil {
		return nil, err
	}
	return out, nil
}

// checkpointSpec decodes a checkpoint workload block.
func (d *dec) checkpointSpec(v any, path string) (*CheckpointSpec, error) {
	m, err := d.mapAt(v, path)
	if err != nil {
		return nil, err
	}
	if err := d.strict(m, path,
		"label", "ranks", "state_mb_per_rank", "compute_seconds", "checkpoints"); err != nil {
		return nil, err
	}
	out := &CheckpointSpec{}
	if out.Label, err = d.str(m, path, "label", ""); err != nil {
		return nil, err
	}
	if out.Ranks, err = d.integer(m, path, "ranks", 0); err != nil {
		return nil, err
	}
	if out.Ranks < 1 {
		return nil, d.errf(path+".ranks", "must be >= 1, got %d", out.Ranks)
	}
	if out.StateMBPerRank, err = d.f64(m, path, "state_mb_per_rank", 0); err != nil {
		return nil, err
	}
	if out.StateMBPerRank <= 0 {
		return nil, d.errf(path+".state_mb_per_rank", "must be > 0, got %v", out.StateMBPerRank)
	}
	if out.ComputeSeconds, err = d.f64(m, path, "compute_seconds", 0); err != nil {
		return nil, err
	}
	if out.ComputeSeconds < 0 {
		return nil, d.errf(path+".compute_seconds", "must be >= 0, got %v", out.ComputeSeconds)
	}
	if out.Checkpoints, err = d.integer(m, path, "checkpoints", 1); err != nil {
		return nil, err
	}
	if out.Checkpoints < 1 {
		return nil, d.errf(path+".checkpoints", "must be >= 1, got %d", out.Checkpoints)
	}
	return out, nil
}

// generatorSpec decodes a generator block.
func (d *dec) generatorSpec(v any, path string) (*GeneratorSpec, error) {
	m, err := d.mapAt(v, path)
	if err != nil {
		return nil, err
	}
	if err := d.strict(m, path,
		"kind", "count", "seed", "label",
		"tasks", "ranks", "block_mb", "transfer_mb", "segments", "reps",
		"mb_per_rank", "state_mb_per_rank", "compute_seconds", "checkpoints",
		"collective", "file_per_proc",
		"start_at", "stripes", "stripe_size_mb"); err != nil {
		return nil, err
	}
	out := &GeneratorSpec{}
	if out.Kind, err = d.str(m, path, "kind", "ior"); err != nil {
		return nil, err
	}
	if out.Kind != "ior" && out.Kind != "plfs" && out.Kind != "checkpoint" {
		return nil, d.errf(path+".kind", "unknown kind %q (ior, plfs, checkpoint)", out.Kind)
	}
	if out.Count, err = d.integer(m, path, "count", 0); err != nil {
		return nil, err
	}
	if out.Count < 1 {
		return nil, d.errf(path+".count", "must be >= 1, got %d", out.Count)
	}
	seed, err := d.integer(m, path, "seed", 0)
	if err != nil {
		return nil, err
	}
	if seed < 0 {
		return nil, d.errf(path+".seed", "must be >= 0, got %d", seed)
	}
	out.Seed = uint64(seed)
	if out.Label, err = d.str(m, path, "label", out.Kind); err != nil {
		return nil, err
	}
	dists := []struct {
		key  string
		dst  **Dist
		kind string // restricted to one workload kind, "" = any
	}{
		{"tasks", &out.Tasks, "ior"},
		{"ranks", &out.Tasks, "plfs|checkpoint"},
		{"block_mb", &out.BlockMB, "ior"},
		{"transfer_mb", &out.TransferMB, "ior|plfs"},
		{"segments", &out.Segments, "ior"},
		{"reps", &out.Reps, "ior|plfs"},
		{"mb_per_rank", &out.MBPerRank, "plfs"},
		{"state_mb_per_rank", &out.StateMB, "checkpoint"},
		{"compute_seconds", &out.ComputeSeconds, "ior|checkpoint"},
		{"checkpoints", &out.Checkpoints, "checkpoint"},
		{"start_at", &out.StartAt, ""},
		{"stripes", &out.Stripes, ""},
		{"stripe_size_mb", &out.StripeSizeMB, ""},
	}
	for _, spec := range dists {
		v, ok := m.Get(spec.key)
		if !ok || v == nil {
			continue
		}
		if spec.kind != "" && !kindMatches(spec.kind, out.Kind) {
			return nil, d.errf(path+"."+spec.key, "not a %s generator field", out.Kind)
		}
		dv, err := d.dist(v, path+"."+spec.key)
		if err != nil {
			return nil, err
		}
		*spec.dst = dv
	}
	for _, bkey := range []string{"collective", "file_per_proc"} {
		if v, ok := m.Get(bkey); ok && v != nil {
			if out.Kind != "ior" {
				return nil, d.errf(path+"."+bkey, "not a %s generator field", out.Kind)
			}
			b, ok := v.(bool)
			if !ok {
				return nil, d.errf(path+"."+bkey, "expected a bool, got %s", typeName(v))
			}
			if bkey == "collective" {
				out.Collective = &b
			} else {
				out.FilePerProc = &b
			}
		}
	}
	if out.Tasks == nil {
		need := "tasks"
		if out.Kind != "ior" {
			need = "ranks"
		}
		return nil, d.errf(path, "missing required key %q", need)
	}
	if out.Kind == "checkpoint" && out.StateMB == nil {
		return nil, d.errf(path, "missing required key \"state_mb_per_rank\"")
	}
	return out, nil
}

// kindMatches reports whether kind is one of the '|'-separated allowed
// kinds.
func kindMatches(allowed, kind string) bool {
	for _, a := range strings.Split(allowed, "|") {
		if a == kind {
			return true
		}
	}
	return false
}

// dist decodes a constant or a distribution block.
func (d *dec) dist(v any, path string) (*Dist, error) {
	switch t := v.(type) {
	case int64:
		return &Dist{Kind: "const", A: float64(t)}, nil
	case float64:
		if math.IsNaN(t) {
			return nil, d.errf(path, "NaN is not a valid number")
		}
		return &Dist{Kind: "const", A: t}, nil
	case *Map:
		if t.Len() != 1 {
			return nil, d.errf(path, "a distribution takes exactly one of uniform, choice, normal")
		}
		key := t.Keys()[0]
		raw, _ := t.Get(key)
		list, err := d.listAt(raw, path+"."+key)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(list))
		for i, e := range list {
			f, err := asFloat(e)
			if err != nil {
				return nil, d.errf(fmt.Sprintf("%s.%s[%d]", path, key, i), "%v", err)
			}
			vals[i] = f
		}
		switch key {
		case "uniform":
			if len(vals) != 2 || vals[0] > vals[1] {
				return nil, d.errf(path+".uniform", "takes [lo, hi] with lo <= hi")
			}
			return &Dist{Kind: "uniform", A: vals[0], B: vals[1]}, nil
		case "choice":
			if len(vals) == 0 {
				return nil, d.errf(path+".choice", "takes at least one value")
			}
			return &Dist{Kind: "choice", Choices: vals}, nil
		case "normal":
			if len(vals) != 2 || vals[1] < 0 {
				return nil, d.errf(path+".normal", "takes [mean, std] with std >= 0")
			}
			return &Dist{Kind: "normal", A: vals[0], B: vals[1]}, nil
		default:
			return nil, d.errf(path, "unknown distribution %q (uniform, choice, normal)", key)
		}
	default:
		return nil, d.errf(path, "expected a number or a distribution block, got %s", typeName(v))
	}
}

// timeline decodes and statically validates the event list.
func (d *dec) timeline(v any, f *File) ([]Event, error) {
	list, err := d.listAt(v, "timeline")
	if err != nil {
		return nil, err
	}
	out := make([]Event, len(list))
	for i, e := range list {
		path := fmt.Sprintf("timeline[%d]", i)
		if err := d.event(e, path, f, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// event decodes one timeline entry: an `at` time plus exactly one action
// key. Every malformed time, factor or index this rejects would
// otherwise surface as a mid-run panic or a silently wrong simulation.
func (d *dec) event(v any, path string, f *File, out *Event) error {
	m, err := d.mapAt(v, path)
	if err != nil {
		return err
	}
	if err := d.strict(m, path,
		"at", EvOSTHealth, EvOSTFail, EvOSTRecover, EvLinkCapacity, EvRebuild, EvShardOutage); err != nil {
		return err
	}
	if _, ok := m.Get("at"); !ok {
		return d.errf(path, "missing required key \"at\"")
	}
	if out.At, err = d.f64(m, path, "at", 0); err != nil {
		return err
	}
	if out.At < 0 || math.IsInf(out.At, 0) {
		return d.errf(path+".at", "event time must be finite and >= 0, got %v", out.At)
	}
	if f.Horizon > 0 && out.At > f.Horizon {
		return d.errf(path+".at", "event time %v is past the scenario horizon %v", out.At, f.Horizon)
	}
	actions := 0
	for _, k := range []string{EvOSTHealth, EvOSTFail, EvOSTRecover, EvLinkCapacity, EvRebuild, EvShardOutage} {
		if _, ok := m.Get(k); ok {
			out.Kind = k
			actions++
		}
	}
	if actions != 1 {
		return d.errf(path, "exactly one action per event, got %d", actions)
	}
	av, _ := m.Get(out.Kind)
	am, err := d.mapAt(av, path+"."+out.Kind)
	if err != nil {
		return err
	}
	apath := path + "." + out.Kind
	out.Shard = -1
	readShard := func() error {
		s, err := d.integer(am, apath, "shard", -1)
		if err != nil {
			return err
		}
		if f.Sharded() {
			if s < 0 {
				return d.errf(apath, "sharded scenarios must name the target shard")
			}
			if s >= f.ShardCount() {
				return d.errf(apath+".shard", "shard %d out of range [0,%d)", s, f.ShardCount())
			}
		} else if s >= 0 {
			return d.errf(apath+".shard", "scenario has no shards")
		}
		out.Shard = s
		return nil
	}
	readOST := func() error {
		ost, err := d.integer(am, apath, "ost", -1)
		if err != nil {
			return err
		}
		if ost < 0 {
			return d.errf(apath, "missing required key \"ost\"")
		}
		out.OST = ost
		return nil
	}
	readFactor := func(key string, def float64, dst *float64) error {
		v, err := d.f64(am, apath, key, def)
		if err != nil {
			return err
		}
		if v < 0 || v > 1 || math.IsNaN(v) {
			return d.errf(apath+"."+key, "health factor must be in [0, 1], got %v", v)
		}
		*dst = v
		return nil
	}
	switch out.Kind {
	case EvOSTHealth:
		if err := d.strict(am, apath, "shard", "ost", "factor"); err != nil {
			return err
		}
		if err := readShard(); err != nil {
			return err
		}
		if err := readOST(); err != nil {
			return err
		}
		if _, ok := am.Get("factor"); !ok {
			return d.errf(apath, "missing required key \"factor\"")
		}
		return readFactor("factor", 0, &out.Factor)
	case EvOSTFail:
		if err := d.strict(am, apath, "shard", "ost"); err != nil {
			return err
		}
		if err := readShard(); err != nil {
			return err
		}
		return readOST()
	case EvOSTRecover:
		if err := d.strict(am, apath, "shard", "ost", "factor"); err != nil {
			return err
		}
		if err := readShard(); err != nil {
			return err
		}
		if err := readOST(); err != nil {
			return err
		}
		return readFactor("factor", 1, &out.Factor)
	case EvLinkCapacity:
		if err := d.strict(am, apath, "shard", "link", "mbs"); err != nil {
			return err
		}
		if err := readShard(); err != nil {
			return err
		}
		if out.Link, err = d.str(am, apath, "link", ""); err != nil {
			return err
		}
		if out.Link == "" {
			return d.errf(apath, "missing required key \"link\"")
		}
		if out.MBs, err = d.f64(am, apath, "mbs", 0); err != nil {
			return err
		}
		if out.MBs <= 0 || math.IsInf(out.MBs, 0) {
			return d.errf(apath+".mbs", "capacity must be finite and > 0, got %v", out.MBs)
		}
		return nil
	case EvRebuild:
		if err := d.strict(am, apath, "shard", "ost", "mb", "streams", "rate_mbs", "from"); err != nil {
			return err
		}
		if err := readShard(); err != nil {
			return err
		}
		if err := readOST(); err != nil {
			return err
		}
		if out.RebuildMB, err = d.f64(am, apath, "mb", 0); err != nil {
			return err
		}
		if out.RebuildMB <= 0 {
			return d.errf(apath+".mb", "rebuild volume must be > 0, got %v", out.RebuildMB)
		}
		if math.IsInf(out.RebuildMB, 1) {
			return d.errf(apath+".mb", "rebuild volume must be finite, got %v", out.RebuildMB)
		}
		if out.Streams, err = d.integer(am, apath, "streams", 4); err != nil {
			return err
		}
		if out.Streams < 1 {
			return d.errf(apath+".streams", "must be >= 1, got %d", out.Streams)
		}
		if out.RateMBs, err = d.f64(am, apath, "rate_mbs", 0); err != nil {
			return err
		}
		if out.RateMBs < 0 {
			return d.errf(apath+".rate_mbs", "must be >= 0 (0 = uncapped), got %v", out.RateMBs)
		}
		if math.IsInf(out.RateMBs, 1) {
			return d.errf(apath+".rate_mbs", "must be finite (0 = uncapped), got %v", out.RateMBs)
		}
		if out.Sources, err = d.intList(am, apath, "from"); err != nil {
			return err
		}
		for _, s := range out.Sources {
			if s < 0 {
				return d.errf(apath+".from", "OST index must be >= 0, got %d", s)
			}
			if s == out.OST {
				return d.errf(apath+".from", "source OST %d is the rebuild target", s)
			}
		}
		return nil
	case EvShardOutage:
		if err := d.strict(am, apath, "shard", "until", "factor", "restore_factor"); err != nil {
			return err
		}
		if !f.Sharded() {
			return d.errf(apath, "shard_outage requires a sharded scenario")
		}
		if err := readShard(); err != nil {
			return err
		}
		if _, ok := am.Get("until"); !ok {
			return d.errf(apath, "missing required key \"until\"")
		}
		if out.Until, err = d.f64(am, apath, "until", 0); err != nil {
			return err
		}
		if out.Until <= out.At || math.IsInf(out.Until, 0) {
			return d.errf(apath+".until", "must be finite and after the event time %v, got %v", out.At, out.Until)
		}
		if f.Horizon > 0 && out.Until > f.Horizon {
			return d.errf(apath+".until", "recovery time %v is past the scenario horizon %v", out.Until, f.Horizon)
		}
		if err := readFactor("factor", 0, &out.Factor); err != nil {
			return err
		}
		return readFactor("restore_factor", 1, &out.RestoreFactor)
	}
	return d.errf(path, "unreachable event kind %q", out.Kind)
}

// assert decodes the assertion block.
func (d *dec) assert(v any, f *File) (AssertBlock, error) {
	var out AssertBlock
	m, err := d.mapAt(v, "assert")
	if err != nil {
		return out, err
	}
	if err := d.strict(m, "assert",
		"makespan", "total_mbs", "mean_mbs", "min_job_mbs", "max_job_mbs",
		"mean_slowdown", "max_slowdown", "solver", "jobs", "shards"); err != nil {
		return out, err
	}
	scalars := []struct {
		key string
		dst *Bound
	}{
		{"makespan", &out.Makespan},
		{"total_mbs", &out.TotalMBs},
		{"mean_mbs", &out.MeanMBs},
		{"min_job_mbs", &out.MinJobMBs},
		{"max_job_mbs", &out.MaxJobMBs},
		{"mean_slowdown", &out.MeanSlowdown},
		{"max_slowdown", &out.MaxSlowdown},
	}
	for _, s := range scalars {
		if v, ok := m.Get(s.key); ok && v != nil {
			b, err := d.bound(v, "assert."+s.key)
			if err != nil {
				return out, err
			}
			*s.dst = b
		}
	}
	if v, ok := m.Get("solver"); ok && v != nil {
		sm, err := d.mapAt(v, "assert.solver")
		if err != nil {
			return out, err
		}
		if err := d.strict(sm, "assert.solver", solverCounters...); err != nil {
			return out, err
		}
		for _, name := range solverCounters {
			cv, ok := sm.Get(name)
			if !ok || cv == nil {
				continue
			}
			b, err := d.bound(cv, "assert.solver."+name)
			if err != nil {
				return out, err
			}
			out.Solver = append(out.Solver, CounterAssert{Name: name, Bound: b})
		}
	}
	if v, ok := m.Get("jobs"); ok && v != nil {
		list, err := d.listAt(v, "assert.jobs")
		if err != nil {
			return out, err
		}
		for i, e := range list {
			path := fmt.Sprintf("assert.jobs[%d]", i)
			jm, err := d.mapAt(e, path)
			if err != nil {
				return out, err
			}
			if err := d.strict(jm, path, "job", "shard", "mbs", "slowdown", "finished"); err != nil {
				return out, err
			}
			var ja JobAssert
			if ja.Job, err = d.str(jm, path, "job", ""); err != nil {
				return out, err
			}
			if ja.Job == "" {
				return out, d.errf(path, "missing required key \"job\"")
			}
			if ja.Shard, err = d.integer(jm, path, "shard", -1); err != nil {
				return out, err
			}
			if ja.Shard >= 0 && !f.Sharded() {
				return out, d.errf(path+".shard", "scenario has no shards")
			}
			if ja.Shard >= f.ShardCount() && f.Sharded() {
				return out, d.errf(path+".shard", "shard %d out of range [0,%d)", ja.Shard, f.ShardCount())
			}
			for _, bs := range []struct {
				key string
				dst *Bound
			}{{"mbs", &ja.MBs}, {"slowdown", &ja.Slowdown}, {"finished", &ja.Finished}} {
				if bv, ok := jm.Get(bs.key); ok && bv != nil {
					b, err := d.bound(bv, path+"."+bs.key)
					if err != nil {
						return out, err
					}
					*bs.dst = b
				}
			}
			if !ja.MBs.set() && !ja.Slowdown.set() && !ja.Finished.set() {
				return out, d.errf(path, "asserts nothing (set mbs, slowdown or finished)")
			}
			out.Jobs = append(out.Jobs, ja)
		}
	}
	if v, ok := m.Get("shards"); ok && v != nil {
		if !f.Sharded() {
			return out, d.errf("assert.shards", "scenario has no shards")
		}
		list, err := d.listAt(v, "assert.shards")
		if err != nil {
			return out, err
		}
		for i, e := range list {
			path := fmt.Sprintf("assert.shards[%d]", i)
			sm, err := d.mapAt(e, path)
			if err != nil {
				return out, err
			}
			if err := d.strict(sm, path, "shard", "total_mbs", "mean_mbs", "makespan"); err != nil {
				return out, err
			}
			var sa ShardAssert
			if sa.Shard, err = d.integer(sm, path, "shard", -1); err != nil {
				return out, err
			}
			if sa.Shard < 0 || sa.Shard >= f.ShardCount() {
				return out, d.errf(path+".shard", "shard index out of range [0,%d)", f.ShardCount())
			}
			for _, bs := range []struct {
				key string
				dst *Bound
			}{{"total_mbs", &sa.TotalMBs}, {"mean_mbs", &sa.MeanMBs}, {"makespan", &sa.Makespan}} {
				if bv, ok := sm.Get(bs.key); ok && bv != nil {
					b, err := d.bound(bv, path+"."+bs.key)
					if err != nil {
						return out, err
					}
					*bs.dst = b
				}
			}
			out.Shards = append(out.Shards, sa)
		}
	}
	return out, nil
}

// bound decodes a {min, max} block.
func (d *dec) bound(v any, path string) (Bound, error) {
	var out Bound
	m, err := d.mapAt(v, path)
	if err != nil {
		return out, err
	}
	if err := d.strict(m, path, "min", "max"); err != nil {
		return out, err
	}
	if v, ok := m.Get("min"); ok && v != nil {
		f, err := asFloat(v)
		if err != nil {
			return out, d.errf(path+".min", "%v", err)
		}
		out.Min, out.HasMin = f, true
	}
	if v, ok := m.Get("max"); ok && v != nil {
		f, err := asFloat(v)
		if err != nil {
			return out, d.errf(path+".max", "%v", err)
		}
		out.Max, out.HasMax = f, true
	}
	if !out.set() {
		return out, d.errf(path, "bound needs min, max or both")
	}
	if out.HasMin && out.HasMax && out.Min > out.Max {
		return out, d.errf(path, "min %v exceeds max %v", out.Min, out.Max)
	}
	return out, nil
}
