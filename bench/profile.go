package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// cpuLayers are the buckets CPU samples are charged to. Their shares sum
// to 1.
var cpuLayers = []string{
	"scenariofile", "workload", "runner", "experiments", "sim", "flow",
	"lustre", "plfs", "mpi", "mpiio", "ior", "runtime", "other",
}

// profileShares runs `go tool pprof -traces` over a CPU profile and
// returns each layer's share of the sampled time.
func profileShares(path string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %v: %s", path, err, strings.TrimSpace(stderr.String()))
	}
	return layerShares(bytes.NewReader(out))
}

// layerShares reads `go tool pprof -traces` output: blocks separated by
// dashed lines, each a sampled duration followed by its stack, innermost
// frame first. Each sample is charged to one layer by charge.
func layerShares(r io.Reader) (map[string]float64, error) {
	byLayer := map[string]float64{}
	var total float64
	var value float64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			byLayer[charge(frames)] += value
			total += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		if !inBlocks || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 {
			// The block's first line: "<duration>   <innermost frame>".
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: unexpected sample line %q", line)
			}
			value = d.Seconds()
			fields = fields[1:]
		}
		frames = append(frames, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = byLayer[l] / total
	}
	return shares, nil
}

// charge picks the layer a sample's time belongs to. Walking out from the
// innermost frame, the first pfsim frame names the layer, so standard
// library frames such as container/heap count toward their pfsim caller.
// Garbage collection and allocation frames met first charge the sample to
// runtime, as does a stack with no pfsim frame but a runtime one
// (scheduling, idle GC workers). Anything else — the benchmark's own
// digesting, for one — is other.
func charge(frames []string) string {
	for _, fn := range frames {
		if allocOrGC(fn) {
			return "runtime"
		}
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	for _, fn := range frames {
		if strings.HasPrefix(fn, "runtime.") {
			return "runtime"
		}
	}
	return "other"
}

// allocPrefixes name the Go runtime's allocation and garbage-collection
// entry points.
var allocPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.makemap", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.wbBuf", "runtime.(*mheap)", "runtime.(*mcentral)",
	"runtime.(*mcache)",
}

func allocOrGC(fn string) bool {
	for _, p := range allocPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// layerOf maps a function name to its pfsim layer, or "" outside pfsim.
// The worker pool, the sweep package and the root package's Runner make up
// the runner layer; pfsim packages without a layer of their own are other.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "pfsim.") {
		return "runner"
	}
	rest, ok := strings.CutPrefix(fn, "pfsim/internal/")
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	switch pkg {
	case "pool", "sweep":
		return "runner"
	case "scenariofile", "workload", "experiments", "sim", "flow", "lustre", "plfs", "mpi", "mpiio", "ior":
		return pkg
	}
	return "other"
}
