package pool

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunCoversAllItems(t *testing.T) {
	for _, workers := range []int{1, 4, 32} {
		var hits [100]atomic.Int32
		if err := Run(context.Background(), workers, len(hits), func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunNilContextAndEmptyBatch(t *testing.T) {
	if err := Run(nil, 4, 0, func(int) error { t.Fatal("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := Run(nil, 1, 1, func(int) error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("err=%v ran=%v", err, ran)
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	wantA, wantB := errors.New("a"), errors.New("b")
	// Serial: fails fast at the first error.
	calls := 0
	err := Run(context.Background(), 1, 10, func(i int) error {
		calls++
		if i == 2 {
			return wantA
		}
		return nil
	})
	if err != wantA || calls != 3 {
		t.Fatalf("serial: err=%v calls=%d", err, calls)
	}
	// Parallel: whichever worker fails, the reported error has the lowest
	// index among recorded failures, and later work is skipped.
	err = Run(context.Background(), 4, 64, func(i int) error {
		if i == 5 {
			return wantA
		}
		if i == 40 {
			return wantB
		}
		return nil
	})
	if err == nil {
		t.Fatal("parallel: no error")
	}
	if err == wantB {
		// Possible only if item 40 failed before item 5 ran; item 5 must
		// then have been skipped. Either error is acceptable, but nil is
		// not, and wantA must win whenever both were recorded.
		t.Log("item 40's error won the race (item 5 skipped)")
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Run(ctx, 4, 8, func(int) error { t.Error("fn ran after cancel"); return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	err := Run(ctx, 2, 1000, func(i int) error {
		if started.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := started.Load(); n > 900 {
		t.Fatalf("cancellation not prompt: %d items ran", n)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit parallelism not honoured")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Error("defaulting broken")
	}
}
