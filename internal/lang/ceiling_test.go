package lang

import (
	"runtime"
	"testing"

	"dlfuzz/internal/sched"
)

// TestResourceCeilings pins what a runaway CLF program can cost under a
// step budget. Every spawn and every allocation is a scheduling
// decision, so a program that spawns or allocates in an endless loop
// stops at MaxSteps with at most MaxSteps+1 threads (main included) and
// objects (main's thread object included), and every thread it started
// is gone when Run returns.
func TestResourceCeilings(t *testing.T) {
	const maxSteps = 20_000
	for _, tc := range []struct {
		name, src string
		// minSpawned and minAllocated show the loop really ran.
		minSpawned, minAllocated int
	}{
		{"spawn-loop", `
			fn spin() { while true { } }
			fn main() { while true { spawn spin(); } }`, 20, 20},
		{"alloc-loop", `
			fn main() { while true { var o = new Object; } }`, 1, maxSteps / 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Parse(tc.name+".clf", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()
			res, err := NewInterp(prog, nil).Run(sched.Options{Seed: 1, MaxSteps: maxSteps})
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome != sched.StepLimit {
				t.Fatalf("outcome %v, want step-limit", res.Outcome)
			}
			t.Logf("spawned %d threads, allocated %d objects", res.Spawned, res.Allocated)
			if res.Spawned < tc.minSpawned || res.Spawned > maxSteps+1 {
				t.Errorf("Spawned = %d, want within [%d, %d]", res.Spawned, tc.minSpawned, maxSteps+1)
			}
			if res.Allocated < uint64(tc.minAllocated) || res.Allocated > maxSteps+1 {
				t.Errorf("Allocated = %d, want within [%d, %d]", res.Allocated, tc.minAllocated, maxSteps+1)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after Run, baseline %d", n, base)
			}
		})
	}
}
