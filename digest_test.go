package pfsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"pfsim/internal/workload"
)

// digestFleet is a small sharded fleet in the shape of the end-to-end
// benchmark's shard-fleet workload: seeded checkpointers on three small
// file systems, each a simulation of its own (replicas draw distinct
// generator streams), with per-OST service jitter (the Cab preset's
// JitterCV), uniform and normal generator draws, and a shard outage. The
// normal draws' standard deviations are not powers of two and their means
// are of the same magnitude as std*x, so std*x rounds and a fused
// mean + std*x often rounds differently from the two-step sum.
const digestFleet = `
name: digest-fleet
platform:
  seed: 7
  nodes: 128
  osts: 16
  osss: 4
horizon: 20000
shards:
  - name: s
    replicate: 3
    fleet:
      - generator:
          kind: checkpoint
          seed: 11
          count: 4
          label: ckpt
          ranks:
            uniform: [8, 32]
          state_mb_per_rank:
            normal: [5, 1.37]
          compute_seconds:
            normal: [25, 7.3]
          checkpoints: 3
          start_at:
            uniform: [0, 60]
timeline:
  - at: 30
    shard_outage:
      shard: 1
      until: 90
      factor: 0.25
`

// digestFleetWant is the SHA-256 of digestFleet's physics outputs, as
// TestShardFleetDigest hashes them.
const digestFleetWant = "d652370bfbdff6fc94e81af6dfdb43e7b89a5e63f58e59d7e9fb1f4ba4fcd6e7"

// TestShardFleetDigest pins the exact bits of a sharded, jittered fleet:
// makespans, and per job its start and finish times, write and read
// samples and OST layouts, hashed as Float64bits. A change in how any
// floating-point step rounds — a fused multiply-add where the code wrote
// two operations, a reordered sum — moves the digest even when every
// tolerance-based test still passes. Solver work counters are left out,
// so a change that does less work for the same results keeps it.
func TestShardFleetDigest(t *testing.T) {
	f, err := ParseScenarioFile([]byte(digestFleet), "digest-fleet.yaml")
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewRunner(WithParallelism(1)).RunScenarioFile(f)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	putF := func(x float64) { put(math.Float64bits(x)) }
	putFs := func(xs []float64) {
		put(uint64(len(xs)))
		for _, x := range xs {
			putF(x)
		}
	}
	putF(res.Makespan())
	for _, sh := range res.Sharded.Shards {
		putF(sh.Makespan)
	}
	jobs := 0
	res.EachJob(func(shard int, jr *workload.JobResult) {
		jobs++
		put(uint64(shard))
		h.Write([]byte(jr.Label))
		putF(jr.StartAt)
		putF(jr.FinishedAt)
		putFs(jr.IOR.Write.Values())
		putFs(jr.IOR.Read.Values())
		for _, layout := range jr.IOR.LayoutOSTs {
			put(uint64(len(layout)))
			for _, ost := range layout {
				put(uint64(ost))
			}
		}
	})
	if jobs != 12 {
		t.Fatalf("fleet ran %d jobs, want 12", jobs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != digestFleetWant {
		t.Errorf("digest of the sharded fleet moved:\n got %s\nwant %s", got, digestFleetWant)
	}
}
