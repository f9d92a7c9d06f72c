package main

import (
	"math"
	"testing"
	"time"

	"iswitch/internal/sim"
)

// shortSim returns the sim workloads cut to a few rounds.
func shortSim() []*simWorkload {
	dqn, ppo := dqnStar(), ppoFatTreeAsync()
	dqn.rounds, ppo.rounds = 3, 40
	return []*simWorkload{dqn, ppo}
}

// deterministic lists the measurements that must repeat exactly for one
// seed: the simulated clock, the bytes on the wire and the work counts.
func deterministic(t *testing.T, r *repResult) map[string]float64 {
	t.Helper()
	return map[string]float64{
		"virtual_round_us_p50":       r.layers["sim.virtual_round_us_p50"],
		"virtual_round_us_p90":       r.layers["sim.virtual_round_us_p90"],
		"wire_bytes":                 float64(r.wireBytes),
		"sim.events_per_round":       r.layers["sim.events_per_round"],
		"accel.packets_in_per_round": r.layers["accel.packets_in_per_round"],
	}
}

func runTraced(t *testing.T, w *simWorkload, seed int64) *repResult {
	t.Helper()
	w.prepare(seed)
	res, err := w.rep(seed, newTracer(true), newRuntimeProbe())
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.wrong {
		t.Fatalf("%s seed %d: %d of %d rounds failed the check", w.name, seed, res.failed, res.attempted)
	}
	return res
}

func TestSimDeterministicPerSeed(t *testing.T) {
	for _, w := range shortSim() {
		a := deterministic(t, runTraced(t, w, 7))
		b := deterministic(t, runTraced(t, w, 7))
		for k, v := range a {
			if v == 0 || math.IsNaN(v) {
				t.Errorf("%s: %s = %v, want a positive count", w.name, k, v)
			}
			if b[k] != v {
				t.Errorf("%s: %s differs between runs of one seed: %v vs %v", w.name, k, v, b[k])
			}
		}
	}
}

func TestSecondSeedChangesInputsAndPasses(t *testing.T) {
	g1, g2 := gradients(1, 1, 16)[0], gradients(2, 1, 16)[0]
	if bitsEqual(g1, g2) {
		t.Fatal("seeds 1 and 2 generate the same gradient")
	}
	for _, w := range shortSim() {
		runTraced(t, w, 2)
	}
}

// TestCheckCatchesMismatch feeds the harness aggregates that disagree
// between workers, and one that strays from the reference sum.
func TestCheckCatchesMismatch(t *testing.T) {
	ref := []float64{1, 2, 3}
	r := &simRep{k: sim.NewKernel(), tr: newTracer(false), res: &repResult{}, ref: ref, applied: make([]int, 2)}
	r.markSetup()
	r.apply(0, []float32{1, 2, 3})
	r.apply(1, []float32{1, 2, 3})
	r.apply(0, []float32{1, 2, 3})
	r.apply(1, []float32{1, 2, 3.0000002})
	r.apply(0, []float32{1, 2, 3.01})
	r.apply(1, []float32{1, 2, 3.01})
	if got := []bool{r.bad[0], r.bad[1], r.bad[2]}; got[0] || !got[1] || !got[2] {
		t.Fatalf("bad rounds = %v, want [false true true]", got)
	}
}

func TestUDPSumsExactly(t *testing.T) {
	w := udpDDPG()
	w.rounds = 20
	w.prepare(3)
	res, err := w.rep(3, newTracer(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.wrong || res.attempted == 0 {
		t.Fatalf("attempted %d, wrong %v", res.attempted, res.wrong)
	}
}

func TestQuantileAndUnion(t *testing.T) {
	if q := quantile([]float64{4, 1, 3, 2}, 0.5); q != 2.5 {
		t.Errorf("median = %v, want 2.5", q)
	}
	if u := unionLen([][2]time.Duration{{20, 30}, {0, 10}, {5, 15}}); u != 25 {
		t.Errorf("union = %v, want 25", u)
	}
}

// flakyWorkload ends every repetition on a failed attempt and fails its
// first retryErrs retries.
type flakyWorkload struct{ retries, retryErrs int }

func (f *flakyWorkload) prepare(int64) {}

func (f *flakyWorkload) rep(int64, *tracer, *runtimeProbe) (*repResult, error) {
	return &repResult{setupCPU: time.Millisecond, rounds: 101, attempted: 100, erred: 1,
		roundsHost: make([]time.Duration, 100)}, nil
}

func (f *flakyWorkload) retry(int64) (*repResult, error) {
	f.retries++
	if f.retries <= f.retryErrs {
		return &repResult{erred: 1}, nil
	}
	return &repResult{setupCPU: time.Millisecond, rounds: 1, attempted: 1,
		roundsHost: make([]time.Duration, 1)}, nil
}

func TestFailedAttemptsAreRetried(t *testing.T) {
	for _, tc := range []struct {
		retryErrs, retries, failed int
	}{
		{retryErrs: 1, retries: 2, failed: 0}, // the second retry delivers the round
		{retryErrs: 9, retries: 2, failed: 1}, // the third failed attempt gives up
	} {
		f := &flakyWorkload{retryErrs: tc.retryErrs}
		out, err := run(f, 1, time.Nanosecond, false, "")
		if err != nil {
			t.Fatal(err)
		}
		// Three repetitions of 100 delivered rounds, then the owed round.
		if f.retries != tc.retries || out.Attempted != 301 || out.Failed != tc.failed {
			t.Errorf("retryErrs %d: retries %d, attempted %d, failed %d; want %d, 301, %d",
				tc.retryErrs, f.retries, out.Attempted, out.Failed, tc.retries, tc.failed)
		}
	}
}
