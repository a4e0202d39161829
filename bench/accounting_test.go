package main

import (
	"bytes"
	"errors"
	"testing"
)

func TestAccountCountsEveryFailureKind(t *testing.T) {
	iters := [][]unit{
		{{name: "a", digest: "d1"}, {name: "b", digest: "d2"}},
		{{name: "a", digest: "d1"}, {name: "b", digest: "d2"}},
	}
	expected := map[string]string{"a": "d1", "b": "d2"}

	rep := newReport("w")
	account(rep, iters, expected)
	if rep.attempted != 4 || rep.failed != 0 {
		t.Fatalf("clean run: attempted %d failed %d", rep.attempted, rep.failed)
	}

	cases := map[string]func() ([][]unit, map[string]string){
		"doctored expected digest": func() ([][]unit, map[string]string) {
			return iters, map[string]string{"a": "d1", "b": "doctored"}
		},
		"digest moved between iterations": func() ([][]unit, map[string]string) {
			moved := [][]unit{iters[0], {{name: "a", digest: "d1"}, {name: "b", digest: "other"}}}
			return moved, nil
		},
		"unit error": func() ([][]unit, map[string]string) {
			broken := [][]unit{iters[0], {{name: "a", digest: "d1"}, {name: "b", err: errors.New("assertions failed")}}}
			return broken, nil
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			it, exp := mk()
			rep := newReport("w")
			account(rep, it, exp)
			if rep.failed == 0 {
				t.Fatalf("no failure counted (attempted %d)", rep.attempted)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(out.Bytes(), []byte(`"correct":false`)) {
				t.Errorf("summary does not report the failure:\n%s", out.String())
			}
		})
	}
}

func TestRecordedDigestsApplyAtTheRecordedSeedOnly(t *testing.T) {
	rec, err := loadRecorded()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		at := rec.expectedDigests(w, config{seed: rec.Seed})
		if len(at) == 0 {
			t.Errorf("%s: no recorded digests at seed %d", w.name, rec.Seed)
		}
		away := rec.expectedDigests(w, config{seed: rec.Seed + 6})
		if w.seeded != (away == nil) {
			t.Errorf("%s (seeded %v): recorded digests away from the recorded seed: %v", w.name, w.seeded, away)
		}
		if small := rec.expectedDigests(w, config{seed: rec.Seed, small: true}); small != nil {
			t.Errorf("%s: recorded digests applied to shrunken inputs", w.name)
		}
	}
}

func TestCorpusIgnoresSeed(t *testing.T) {
	w, _ := lookupWorkload("corpus")
	var digests [2][]unit
	for i, seed := range []uint64{1, 7} {
		r, _, err := prepare(w, config{root: "..", seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = iterate(r, nil)
	}
	for i, u := range digests[0] {
		if u.err != nil || u.digest != digests[1][i].digest {
			t.Errorf("%s: seed 1 digest %q (err %v), seed 7 digest %q", u.name, u.digest, u.err, digests[1][i].digest)
		}
	}
}

func TestGeneratedWorkloadsFollowSeed(t *testing.T) {
	for _, name := range []string{"plfs-storm", "shard-fleet"} {
		for _, small := range []bool{false, true} {
			a, err := render(name, 1, small)
			if err != nil {
				t.Fatal(err)
			}
			again, _ := render(name, 1, small)
			other, _ := render(name, 2, small)
			if !bytes.Equal(a, again) {
				t.Errorf("%s (small %v): seed 1 renders differently on a rerun", name, small)
			}
			if bytes.Equal(a, other) {
				t.Errorf("%s (small %v): seeds 1 and 2 render the same document", name, small)
			}
		}

		w, _ := lookupWorkload(name)
		digest := func(seed uint64) string {
			r, _, err := prepare(w, config{seed: seed, small: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.setup(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			u := iterate(r, nil)[0]
			if u.err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, u.err)
			}
			return u.digest
		}
		if d1, d2 := digest(1), digest(2); d1 == d2 {
			t.Errorf("%s: seeds 1 and 2 simulate identically", name)
		} else if digest(1) != d1 {
			t.Errorf("%s: seed 1 simulates differently on a rerun", name)
		}
	}
}
