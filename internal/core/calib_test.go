package core

import (
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// TestCalibrationSweep logs simulated vs paper per-iteration times for
// all four workloads under PS, AR, and iSwitch (4 workers).
func TestCalibrationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	for _, w := range perfmodel.Workloads() {
		run := func(strategy string) time.Duration {
			k := sim.NewKernel()
			agents := make([]rl.Agent, 4)
			var services []Service
			switch strategy {
			case "PS":
				cfg := PSConfigFor(w)
				c := Build(k, ClusterSpec{Topology: TopoStar, Mode: ModePS, Workers: 4, ModelFloats: w.Floats(), Link: netsim.TenGbE(), PS: &cfg}).PS
				for i := range agents {
					agents[i] = NewSyntheticAgent(w.Floats())
					services = append(services, c.Client(i))
				}
			case "AR":
				cfg := ARConfigFor(w)
				c := Build(k, ClusterSpec{Topology: TopoStar, Mode: ModeAllReduce, Workers: 4, ModelFloats: w.Floats(), Link: netsim.TenGbE(), AR: &cfg}).AR
				for i := range agents {
					agents[i] = NewSyntheticAgent(w.Floats())
					services = append(services, c.Client(i))
				}
			case "ISW":
				c := Build(k, ClusterSpec{Topology: TopoStar, Mode: ModeISW, Workers: 4, ModelFloats: w.Floats(), Link: netsim.TenGbE()}).ISW
				for i := range agents {
					agents[i] = NewSyntheticAgent(w.Floats())
					services = append(services, c.Client(i))
				}
			}
			stats := RunSync(k, agents, services, SyncConfig{Iterations: 3,
				LocalCompute: w.LocalCompute, WeightUpdate: w.WeightUpdate})
			return stats.MeanIter()
		}
		ps, ar, isw := run("PS"), run("AR"), run("ISW")
		t.Logf("%-5s PS %8.2fms (paper %6.2f)  AR %8.2fms (paper %6.2f)  iSW %8.2fms (paper %6.2f)",
			w.Name,
			float64(ps)/1e6, float64(w.PaperSyncPerIterPS)/1e6,
			float64(ar)/1e6, float64(w.PaperSyncPerIterAR)/1e6,
			float64(isw)/1e6, float64(w.PaperSyncPerIterISW)/1e6)
	}
}
