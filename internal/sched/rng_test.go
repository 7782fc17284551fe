package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestFastSourceMatchesStdlib pins fastSource's hard contract: for any
// seed, its output sequence is bit-identical to rand.NewSource(seed) —
// through the raw Source64 interface and through every *rand.Rand
// derivation the scheduler's policies use.
func TestFastSourceMatchesStdlib(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, 7, 42, 12345, -12345,
		89482311, // the zero-seed substitute
		rngM31 - 1, rngM31, rngM31 + 1, -rngM31, -rngM31 - 1,
		1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64,
	}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		src := &fastSource{}
		src.Seed(seed)
		got := rand.New(src)
		for i := 0; i < 2000; i++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d draw %d: Int63 %d != stdlib %d", seed, i, g, w)
			}
		}
		for i := 0; i < 500; i++ {
			if w, g := want.Intn(7), got.Intn(7); w != g {
				t.Fatalf("seed %d draw %d: Intn %d != stdlib %d", seed, i, g, w)
			}
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: Uint64 %d != stdlib %d", seed, i, g, w)
			}
		}
	}
}

// TestFastSourceReseed pins the pooled-scheduler path: re-seeding a used
// source restores the exact fresh-source stream.
func TestFastSourceReseed(t *testing.T) {
	src := &fastSource{}
	src.Seed(99)
	for i := 0; i < 1234; i++ {
		src.Uint64()
	}
	src.Seed(7)
	want := rand.NewSource(7).(rand.Source64)
	for i := 0; i < 2000; i++ {
		if w, g := want.Uint64(), src.Uint64(); w != g {
			t.Fatalf("draw %d after reseed: %d != stdlib %d", i, g, w)
		}
	}
}

// TestFastSourceReseedAtEveryDrawCount reseeds a used source after
// every draw count from 0 to 700 — across the lazy fill's boundaries at
// draws 273/274 (last draw that first touches a tap slot) and 334/335
// (last draw that fills anything) and past a full register turn — both
// directly and through the pooled (*rand.Rand).Seed path, and checks
// 2000 draws against a fresh stdlib source each time.
func TestFastSourceReseedAtEveryDrawCount(t *testing.T) {
	const draws = 2000
	src := &fastSource{}
	pooled := rand.New(&fastSource{})
	for n := 0; n <= 700; n++ {
		seed := int64(n)*7919 + 3
		src.Seed(int64(n) + 1)
		pooled.Seed(int64(n) + 1)
		for i := 0; i < n; i++ {
			src.Uint64()
			pooled.Int63()
		}
		src.Seed(seed)
		pooled.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		wantRand := rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			if w, g := want.Uint64(), src.Uint64(); w != g {
				t.Fatalf("reseed after %d draws, draw %d: %d != stdlib %d", n, i, g, w)
			}
			if w, g := wantRand.Int63(), pooled.Int63(); w != g {
				t.Fatalf("pooled reseed after %d draws, draw %d: %d != stdlib %d", n, i, g, w)
			}
		}
	}
}

// BenchmarkSeedDraw times a reseed plus d draws through *rand.Rand —
// the per-run RNG cost of a pooled scheduler whose run draws d times —
// for fastSource and the stdlib source side by side.
func BenchmarkSeedDraw(b *testing.B) {
	for _, d := range []int{0, 32, 607, 2000} {
		for _, src := range []struct {
			name string
			new  func() rand.Source
		}{
			{"fast", func() rand.Source { return &fastSource{} }},
			{"stdlib", func() rand.Source { return rand.NewSource(1) }},
		} {
			b.Run(fmt.Sprintf("draws=%d/%s", d, src.name), func(b *testing.B) {
				r := rand.New(src.new())
				for i := 0; i < b.N; i++ {
					r.Seed(int64(i))
					for j := 0; j < d; j++ {
						r.Int63()
					}
				}
			})
		}
	}
}
