package dlfuzz_test

// Differential suite for the CLF bytecode VM. Interp compiles programs
// to slot-indexed bytecode by default; TreeWalkBody selects the original
// tree-walking interpreter, kept as the reference back end. The two must
// be indistinguishable to everything above the interpreter: same event
// streams, same Results, same print bytes, same campaign reports at
// every parallelism. These tests pin that equivalence over the committed
// CLF programs, the generated-program presets, and full Phase I+II
// campaigns — the same contract batching_test.go pins for the scheduler
// protocols.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dlfuzz"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/event"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/lang/gen"
	"dlfuzz/internal/sched"
)

// diffSources collects the CLF sources the VM differential runs: every
// committed testdata program, the committed generated corpus, and fresh
// generator output from every preset at several seeds.
func diffSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := make(map[string]string)
	for _, pattern := range []string{"*.clf", filepath.Join("corpus", "gen-*.clf")} {
		files, err := filepath.Glob(filepath.Join("testdata", pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			srcs[filepath.Base(file)] = string(src)
		}
	}
	for _, cfg := range []gen.Config{gen.Small(), gen.Medium(), gen.Large(), gen.Blocking()} {
		for _, seed := range []int64{1, 17, 99} {
			name := fmt.Sprintf("gen-%s-%d.clf", cfg.Preset, seed)
			srcs[name] = gen.Generate(seed, cfg)
		}
	}
	if len(srcs) < 20 {
		t.Fatalf("differential corpus suspiciously small: %d programs", len(srcs))
	}
	return srcs
}

// TestVMTreeSchedDifferential runs every program under both back ends at
// several seeds and requires byte-identical executions: the same Result
// (reflect.DeepEqual, including the deadlock witness), the same event
// stream event by event, and the same print output byte for byte.
func TestVMTreeSchedDifferential(t *testing.T) {
	for name, src := range diffSources(t) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var vmOut, treeOut bytes.Buffer
			vmProg, err := dlfuzz.ParseCLF(name, src)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			treeProg, err := dlfuzz.ParseCLF(name, src)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			vmBody := vmProg.WithOutput(&vmOut).Body()
			treeBody := treeProg.WithOutput(&treeOut).TreeWalkBody()
			for _, seed := range []int64{0, 1, 7, 42} {
				run := func(body func(*sched.Ctx), out *bytes.Buffer) (res *sched.Result, events []sched.Ev, print string) {
					out.Reset()
					rec := &eventRecorder{}
					defer func() {
						// CLF runtime errors surface as panics; a
						// differential run treats them as an outcome and
						// compares the messages.
						if r := recover(); r != nil {
							res, events, print = nil, rec.events, fmt.Sprintf("panic: %v\n%s", r, out.String())
						}
					}()
					res = sched.New(sched.Options{
						Seed:      seed,
						Observers: []sched.Observer{rec},
					}).Run(body)
					return res, rec.events, out.String()
				}
				vres, vevents, vprint := run(vmBody, &vmOut)
				tres, tevents, tprint := run(treeBody, &treeOut)
				if !reflect.DeepEqual(vres, tres) {
					t.Fatalf("seed %d: results diverged\nvm   %+v\ntree %+v", seed, vres, tres)
				}
				if vprint != tprint {
					t.Fatalf("seed %d: print output diverged\nvm   %q\ntree %q", seed, vprint, tprint)
				}
				if !reflect.DeepEqual(vevents, tevents) {
					for i := range vevents {
						if i >= len(tevents) || !reflect.DeepEqual(vevents[i], tevents[i]) {
							t.Fatalf("seed %d: event %d diverged\nvm   %+v\ntree %+v",
								seed, i, vevents[i], tevents[i])
						}
					}
					t.Fatalf("seed %d: event streams diverged in length: %d vs %d",
						seed, len(vevents), len(tevents))
				}
			}
		})
	}
}

// TestVMTreeCampaignDifferential extends the equivalence through the full
// two-phase pipeline: for each committed testdata program with candidate
// cycles, one multi-cycle confirm campaign per back end at parallelism
// 1, 2 and 4 must produce reflect.DeepEqual summaries and byte-equal
// rendered reports. Parallel campaigns also exercise the VM's pooled
// per-run state under concurrent executions of one shared body.
func TestVMTreeCampaignDifferential(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.clf"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := dlfuzz.ParseCLF(file, string(src))
			if err != nil {
				t.Fatal(err)
			}
			vmBody := prog.Body()
			treeBody := prog.TreeWalkBody()
			find, err := dlfuzz.Find(vmBody, dlfuzz.DefaultFindOptions())
			if err != nil {
				t.Skipf("%s: observation failed: %v", file, err)
			}
			if len(find.Cycles) == 0 {
				t.Skipf("%s reports no cycles", file)
			}
			cfg := fuzzer.DefaultConfig()
			const runs = 24
			for _, par := range []int{1, 2, 4} {
				opts := campaign.Options{Parallelism: par}
				vsum := campaign.ConfirmCycles(vmBody, find.Cycles, cfg, runs, 0, opts)
				tsum := campaign.ConfirmCycles(treeBody, find.Cycles, cfg, runs, 0, opts)
				if !reflect.DeepEqual(vsum, tsum) {
					t.Fatalf("parallelism %d: summaries diverged\nvm   %+v\ntree %+v", par, vsum, tsum)
				}
				if vr, tr := fmt.Sprintf("%+v", vsum), fmt.Sprintf("%+v", tsum); vr != tr {
					t.Fatalf("parallelism %d: rendered reports diverged\nvm   %s\ntree %s", par, vr, tr)
				}
			}
		})
	}
}

// TestVMTreeBlockingDifferential pins the equivalence for blocking
// campaigns: generated blocking-preset programs and the channel/WaitGroup
// testdata programs must classify identically under both back ends at
// parallelism 1, 2 and 4.
func TestVMTreeBlockingDifferential(t *testing.T) {
	srcs := map[string]string{}
	for _, seed := range []int64{2, 23} {
		srcs[fmt.Sprintf("gen-blocking-%d.clf", seed)] = gen.Generate(seed, gen.Blocking())
	}
	for _, name := range []string{"chancycle.clf", "wgleak.clf", "prodcons.clf"} {
		src, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		srcs[name] = string(src)
	}
	for name, src := range srcs {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog, err := dlfuzz.ParseCLF(name, src)
			if err != nil {
				t.Fatal(err)
			}
			opts := dlfuzz.DefaultBlockingOptions()
			opts.Runs = 30
			for _, par := range []int{1, 2, 4} {
				opts.Parallelism = par
				vrep := dlfuzz.FindBlocking(prog.Body(), opts)
				trep := dlfuzz.FindBlocking(prog.TreeWalkBody(), opts)
				if !reflect.DeepEqual(vrep, trep) {
					t.Fatalf("parallelism %d: blocking reports diverged\nvm   %+v\ntree %+v",
						par, vrep, trep)
				}
			}
		})
	}
}

// unwindRaceSrc raises a CLF runtime error three calls deep in a worker
// whose every frame holds a sync, while a rival thread keeps taking the
// same locks one at a time. The worker's unwinding Release and Return
// posts are real scheduling points, so the rival's acquires interleave
// with them.
const unwindRaceSrc = `
fn c3(a, b, c) { sync (c) { work(1); var x = 1 + nil; } }
fn c2(a, b, c) { sync (b) { work(1); c3(a, b, c); } }
fn c1(a, b, c) { sync (a) { work(1); c2(a, b, c); } }
fn worker(a, b, c, d) { sync (d) { c1(a, b, c); } }
fn rival(a, b, c, d) {
    var i = 0;
    while i < 4 {
        sync (a) { work(1); }
        sync (b) { work(1); }
        sync (c) { work(1); }
        sync (d) { work(1); }
        i = i + 1;
    }
}
fn main() {
    var a = new Object;
    var b = new Object;
    var c = new Object;
    var d = new Object;
    var w = spawn worker(a, b, c, d);
    var r = spawn rival(a, b, c, d);
    join w;
    join r;
}`

// TestVMTreeUnwindInterleaving pins the runtime-error unwind under
// contention: for every seed, the VM's outcome (the RuntimeError) and
// event stream must equal the walker's, with seeds spread over 1, 2 and
// 4 concurrent executions of one shared body. The test also requires
// that some seed actually interleaves a rival event into the worker's
// unwind, so the case keeps exercising what it pins.
func TestVMTreeUnwindInterleaving(t *testing.T) {
	prog, err := dlfuzz.ParseCLF("unwind.clf", unwindRaceSrc)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		msg    string
		events []sched.Ev
	}
	const seeds = 48
	runAll := func(body func(*sched.Ctx), width int) []outcome {
		out := make([]outcome, seeds)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < width; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seed := next.Add(1) - 1; seed < seeds; seed = next.Add(1) - 1 {
					rec := &eventRecorder{}
					func() {
						defer func() { out[seed].msg = fmt.Sprint(recover()) }()
						sched.New(sched.Options{Seed: seed, Observers: []sched.Observer{rec}}).Run(body)
					}()
					out[seed].events = rec.events
				}
			}()
		}
		wg.Wait()
		return out
	}
	ref := runAll(prog.TreeWalkBody(), 1)
	for _, width := range []int{1, 2, 4} {
		vm := runAll(prog.Body(), width)
		tree := runAll(prog.TreeWalkBody(), width)
		for seed := range ref {
			if !reflect.DeepEqual(vm[seed], ref[seed]) || !reflect.DeepEqual(tree[seed], ref[seed]) {
				t.Fatalf("width %d seed %d: diverged\nvm   %s %+v\ntree %s %+v\nref  %s %+v", width, seed,
					vm[seed].msg, vm[seed].events, tree[seed].msg, tree[seed].events, ref[seed].msg, ref[seed].events)
			}
		}
	}

	// The worker is t1 and the rival t2 (spawn order). The unwind spans
	// the worker's first Release (every Release of the worker is an
	// unwinding one) to its last Return.
	interleaved := 0
	for seed, o := range ref {
		if !strings.Contains(o.msg, "runtime error: operator '+' requires ints, got int and nil") {
			t.Fatalf("seed %d: outcome %q, want the runtime error", seed, o.msg)
		}
		first, last := -1, -1
		for i, ev := range o.events {
			if ev.Thread != 1 {
				continue
			}
			if ev.Kind == event.KindRelease && first < 0 {
				first = i
			}
			if ev.Kind == event.KindReturn {
				last = i
			}
		}
		for i := first + 1; first >= 0 && i < last; i++ {
			if o.events[i].Thread == 2 {
				interleaved++
				break
			}
		}
	}
	if interleaved == 0 {
		t.Fatalf("no seed in 0..%d interleaves the rival into the worker's unwind", seeds-1)
	}
	t.Logf("%d of %d seeds interleave the rival into the unwind", interleaved, seeds)
}
