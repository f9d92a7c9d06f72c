package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// The shard partition must cover the vector exactly: contiguous,
// gap-free, segment-aligned, every shard non-empty.
func TestShardPartitionCoversVector(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{1, 1}, {100, 2}, {366, 4}, {367, 2}, {1000, 3}, {5000, 8},
		{366 * 7, 7}, {366*7 + 1, 7}, {50, 9} /* clamps to 1 segment */, {1_602_500, 16},
	} {
		k := sim.NewKernel()
		c := Build(k, ClusterSpec{Topology: TopoStar, Mode: ModeAsyncPS, Workers: 2, ModelFloats: tc.n, Shards: tc.shards, Link: testLink()}).PS
		prevHi := 0
		for s := 0; s < c.NumShards(); s++ {
			lo, hi := c.ShardElems(s)
			if lo != prevHi {
				t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", tc.n, tc.shards, s, lo, prevHi)
			}
			if hi <= lo {
				t.Fatalf("n=%d shards=%d: shard %d empty [%d,%d)", tc.n, tc.shards, s, lo, hi)
			}
			if lo%protocol.FloatsPerPacket != 0 {
				t.Fatalf("n=%d shards=%d: shard %d not segment-aligned (lo=%d)", tc.n, tc.shards, s, lo)
			}
			prevHi = hi
		}
		if prevHi != tc.n {
			t.Fatalf("n=%d shards=%d: covered %d", tc.n, tc.shards, prevHi)
		}
		// Segment ownership is the contiguous index-range check.
		for seg := 0; seg < protocol.SegmentCount(tc.n); seg++ {
			s := c.ShardOf(uint64(seg))
			lo, hi := c.ShardElems(s)
			elo, ehi := protocol.SegmentRange(tc.n, uint64(seg))
			if elo < lo || ehi > hi {
				t.Fatalf("n=%d shards=%d: seg %d ([%d,%d)) assigned to shard %d ([%d,%d))",
					tc.n, tc.shards, seg, elo, ehi, s, lo, hi)
			}
		}
	}
}

// Synchronous PS aggregation must equal the direct element-wise sum at
// any shard count (0 and 1 both mean one server), including models
// whose length does not divide into whole packets, at worker counts
// past the point where worker and server addresses once collided
// (star worker 4 sits on 10.0.0.10), on star and on the rack tree.
func TestShardedPSMatchesDirectSum(t *testing.T) {
	type tc struct {
		topo             Topology
		nWorkers, shards int
	}
	var cases []tc
	for _, shards := range []int{1, 2, 3, 5} {
		cases = append(cases, tc{TopoStar, 3, shards})
	}
	for nWorkers := 5; nWorkers <= 8; nWorkers++ {
		cases = append(cases, tc{TopoStar, nWorkers, 0}, tc{TopoTree, nWorkers, 0}, tc{TopoTree, nWorkers, 2})
	}
	for _, tc := range cases {
		const nFloats, iters = 1500, 2
		name := fmt.Sprintf("%v/workers=%d/shards=%d", tc.topo, tc.nWorkers, tc.shards)
		k := sim.NewKernel()
		c := Build(k, ClusterSpec{Topology: tc.topo, Mode: ModePS, Workers: tc.nWorkers, PerRack: 3,
			ModelFloats: nFloats, Shards: tc.shards, Link: testLink()}).PS
		agents := make([]rl.Agent, tc.nWorkers)
		ints := make([]*intAgent, tc.nWorkers)
		services := make([]Service, tc.nWorkers)
		for i := range agents {
			ints[i] = newIntAgent(i, nFloats)
			agents[i] = ints[i]
			services[i] = c.Client(i)
		}
		RunSync(k, agents, services, fastTiming(iters))

		ref := make([]*intAgent, tc.nWorkers)
		for i := range ref {
			ref[i] = newIntAgent(i, nFloats)
		}
		g := make([]float32, nFloats)
		for it := 0; it < iters; it++ {
			want := make([]float32, nFloats)
			for _, a := range ref {
				a.ComputeGradient(g)
				for i := range want {
					want[i] += g[i]
				}
			}
			for w, a := range ints {
				if len(a.applied) != iters {
					t.Fatalf("%s: worker %d applied %d", name, w, len(a.applied))
				}
				for i := range want {
					if a.applied[it][i] != want[i] {
						t.Fatalf("%s: iter %d worker %d elem %d: got %v want %v",
							name, it, w, i, a.applied[it][i], want[i])
					}
				}
			}
		}
	}
}

// Sharding must shorten the synchronous aggregation phase: the central
// link splits across S server NICs and the summation parallelizes.
func TestShardedPSSyncAggDecreases(t *testing.T) {
	const nWorkers, nFloats = 4, 400_000
	agg := func(shards int) time.Duration {
		k := sim.NewKernel()
		c := Build(k, ClusterSpec{Topology: TopoStar, Mode: ModePS, Workers: nWorkers, ModelFloats: nFloats, Shards: shards, Link: testLink()}).PS
		agents := make([]rl.Agent, nWorkers)
		services := make([]Service, nWorkers)
		for i := range agents {
			agents[i] = NewSyntheticAgent(nFloats)
			services[i] = c.Client(i)
		}
		return RunSync(k, agents, services, fastTiming(2)).MeanAgg()
	}
	prev := agg(1)
	for _, s := range []int{2, 4, 8} {
		cur := agg(s)
		if cur >= prev {
			t.Fatalf("sync agg not decreasing: S=%d %v vs previous %v", s, cur, prev)
		}
		prev = cur
	}
}

// The async sharded PS applies exactly Updates updates per shard and
// accounts commits/discards per shard, with the global counters being
// the per-shard sums.
func TestAsyncShardedPSAppliesPerShardUpdates(t *testing.T) {
	const nWorkers, nFloats, shards = 3, 1200, 3
	k := sim.NewKernel()
	c := Build(k, ClusterSpec{Topology: TopoStar, Mode: ModeAsyncPS, Workers: nWorkers, ModelFloats: nFloats, Shards: shards, Link: testLink()}).PS
	agents := make([]rl.Agent, nWorkers)
	for i := range agents {
		agents[i] = newIntAgent(i, nFloats)
	}
	master := newIntAgent(99, nFloats)
	cfg := AsyncConfig{Updates: 10, StalenessBound: 3,
		LocalCompute: 50 * time.Microsecond, WeightUpdate: 10 * time.Microsecond}
	stats := RunAsyncPS(k, agents, master, c, cfg)

	if len(stats.PerShard) != shards {
		t.Fatalf("PerShard has %d entries, want %d", len(stats.PerShard), shards)
	}
	var commit, discard, stale int64
	for s, ps := range stats.PerShard {
		if ps.Committed != cfg.Updates {
			t.Fatalf("shard %d committed %d, want %d", s, ps.Committed, cfg.Updates)
		}
		if ps.MaxStaleness > cfg.StalenessBound {
			t.Fatalf("shard %d max staleness %d exceeds bound %d", s, ps.MaxStaleness, cfg.StalenessBound)
		}
		server := stats.Workers[nWorkers+s]
		if int64(len(server.Iters)) != cfg.Updates {
			t.Fatalf("shard %d iter records %d", s, len(server.Iters))
		}
		commit += ps.Committed
		discard += ps.Discarded
		stale += ps.StalenessSum
	}
	if commit != stats.Committed || discard != stats.Discarded || stale != stats.StalenessSum {
		t.Fatalf("per-shard sums %d/%d/%d != global %d/%d/%d",
			commit, discard, stale, stats.Committed, stats.Discarded, stats.StalenessSum)
	}
	// S shard updates each touching 1/S of the model == Updates
	// full-model-equivalent updates.
	if int64(len(master.applied)) != int64(shards)*cfg.Updates {
		t.Fatalf("master applied %d slices, want %d", len(master.applied), int64(shards)*cfg.Updates)
	}
	if stats.MeanStaleness() > float64(cfg.StalenessBound) {
		t.Fatalf("mean staleness %v exceeds bound", stats.MeanStaleness())
	}
}

// An accepted shard update must touch only that shard's slice of the
// master weights (the apply path zero-pads outside the shard).
func TestAsyncShardedPSUpdatesAreSliceLocal(t *testing.T) {
	const nWorkers, nFloats, shards = 2, 1100, 3
	k := sim.NewKernel()
	c := Build(k, ClusterSpec{Topology: TopoStar, Mode: ModeAsyncPS, Workers: nWorkers, ModelFloats: nFloats, Shards: shards, Link: testLink()}).PS
	agents := make([]rl.Agent, nWorkers)
	for i := range agents {
		agents[i] = newIntAgent(i, nFloats)
	}
	master := newIntAgent(99, nFloats)
	cfg := AsyncConfig{Updates: 4, StalenessBound: 2,
		LocalCompute: 50 * time.Microsecond, WeightUpdate: 10 * time.Microsecond}
	RunAsyncPS(k, agents, master, c, cfg)

	bounds := make([][2]int, shards)
	for s := 0; s < shards; s++ {
		lo, hi := c.ShardElems(s)
		bounds[s] = [2]int{lo, hi}
	}
	for u, vec := range master.applied {
		// Each applied vector must be non-zero inside exactly one shard.
		touched := -1
		for s, b := range bounds {
			nz := false
			for i := b[0]; i < b[1]; i++ {
				if vec[i] != 0 {
					nz = true
					break
				}
			}
			if nz {
				if touched >= 0 {
					t.Fatalf("update %d touches shards %d and %d", u, touched, s)
				}
				touched = s
			}
		}
		if touched < 0 {
			t.Fatalf("update %d touches no shard", u)
		}
	}
}

// scratchAgent records the backing-array pointer of every aggregate it
// is handed, to pin the zero-copy Aggregate contract.
type scratchAgent struct {
	intAgent
	ptrs []*float32
}

func (a *scratchAgent) ApplyAggregated(sum []float32, h int) {
	a.ptrs = append(a.ptrs, &sum[0])
	a.intAgent.ApplyAggregated(sum, h)
}

// psClient.Aggregate must return its reusable assembler buffer instead
// of a fresh per-round copy (the alloc-regression guard for the fix).
func TestPSAggregateReusesScratchBuffer(t *testing.T) {
	for _, strategy := range []string{"ps", "sharded"} {
		const nWorkers, nFloats, iters = 2, 2000, 3
		k := sim.NewKernel()
		agents := make([]rl.Agent, nWorkers)
		scratch := make([]*scratchAgent, nWorkers)
		services := make([]Service, nWorkers)
		var client func(int) Service
		if strategy == "ps" {
			client = Build(k, ClusterSpec{Topology: TopoStar, Mode: ModePS, Workers: nWorkers, ModelFloats: nFloats, Link: testLink()}).PS.Client
		} else {
			client = Build(k, ClusterSpec{Topology: TopoStar, Mode: ModePS, Workers: nWorkers, ModelFloats: nFloats, Shards: 2, Link: testLink()}).PS.Client
		}
		for i := range agents {
			scratch[i] = &scratchAgent{intAgent: *newIntAgent(i, nFloats)}
			agents[i] = scratch[i]
			services[i] = client(i)
		}
		RunSync(k, agents, services, fastTiming(iters))
		for w, a := range scratch {
			if len(a.ptrs) != iters {
				t.Fatalf("%s worker %d saw %d aggregates", strategy, w, len(a.ptrs))
			}
			for it := 1; it < iters; it++ {
				if a.ptrs[it] != a.ptrs[0] {
					t.Fatalf("%s worker %d: aggregate buffer reallocated at iter %d", strategy, w, it)
				}
			}
		}
	}
}

// BenchmarkPSAggregateRoundPPO tracks the per-round allocation profile
// of the PS sync datapath (PPO-sized model). The zero-copy Aggregate
// fix removed the last per-round whole-vector allocation; a regression
// shows up here as allocs/op growing by a gradient-sized copy per
// worker per round.
func BenchmarkPSAggregateRoundPPO(b *testing.B) {
	n := perfmodel.Workloads()[2].Floats() // PPO, 10005 floats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		c := Build(k, ClusterSpec{Topology: TopoStar, Mode: ModePS, Workers: 4, ModelFloats: n, Link: netsim.TenGbE()}).PS
		agents := make([]rl.Agent, 4)
		services := make([]Service, 4)
		for j := range agents {
			agents[j] = NewSyntheticAgent(n)
			services[j] = c.Client(j)
		}
		RunSync(k, agents, services, fastTiming(4))
	}
}

// pinAgent produces deterministic fractional gradients (so float32
// summation order and fp16 rounding both show in the bits) and folds
// every aggregate it is handed into an FNV-1a hash.
type pinAgent struct {
	id, n, iter int
	hash        hash.Hash64
	params      []float32
}

func newPinAgent(id, n int) *pinAgent {
	return &pinAgent{id: id, n: n, hash: fnv.New64a(), params: make([]float32, n)}
}

func (a *pinAgent) Name() string { return "pin" }
func (a *pinAgent) GradLen() int { return a.n }
func (a *pinAgent) ComputeGradient(dst []float32) {
	a.iter++
	for i := range dst {
		dst[i] = float32((a.id+1)*(a.iter+3)+i%97) / 37
	}
}
func (a *pinAgent) ApplyAggregated(sum []float32, h int) {
	var buf [4]byte
	for _, v := range sum {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		a.hash.Write(buf[:])
	}
	for i := range a.params {
		a.params[i] -= sum[i] / float32(h) * 0.01
	}
}
func (a *pinAgent) ReadParams(dst []float32)  { copy(dst, a.params) }
func (a *pinAgent) WriteParams(src []float32) { copy(a.params, src) }
func (a *pinAgent) DrainEpisodes() []float64  { return nil }

// TestPSOneServerPinned pins the single-server parameter server (S=1)
// to the virtual clocks, commit/discard counts and applied-aggregate
// hashes the original dedicated single-server implementation produced,
// on star, tree and fp16 — sync and async. A change to any of these
// numbers is a change to the paper's PS baseline.
func TestPSOneServerPinned(t *testing.T) {
	const nFloats = 3*protocol.FloatsPerPacket + 5
	star := ClusterSpec{Topology: TopoStar, Workers: 4}
	tree := ClusterSpec{Topology: TopoTree, Workers: 6, PerRack: 3, Uplink: netsim.FortyGbE()}
	fp16 := ClusterSpec{Topology: TopoStar, Workers: 4, Compression: protocol.CompFP16}
	cases := []struct {
		name      string
		spec      ClusterSpec
		mode      Mode
		total     time.Duration
		meanIter  time.Duration
		committed int64
		discarded int64
		hash      uint64
	}{
		{"sync-star", star, ModePS, 31624457, 9895080, 0, 0, 0x2ccc7608049e4155},
		{"sync-tree", tree, ModePS, 47137443, 14635139, 0, 0, 0x2fd2f5ecdbcce9a5},
		{"sync-star-fp16", fp16, ModePS, 31614479, 9891754, 0, 0, 0xb5b9d4debc444375},
		{"async-star", star, ModeAsyncPS, 52539468, 2626973, 20, 19, 0x3ba97fa871d7482e},
		{"async-tree", tree, ModeAsyncPS, 52543594, 2627179, 20, 19, 0xe28e622ec02fc614},
		{"async-star-fp16", fp16, ModeAsyncPS, 52537116, 2626855, 20, 19, 0x32d566d7a2a8b643},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Mode = tc.mode
			spec.ModelFloats = nFloats
			spec.Link = testLink()
			k := sim.NewKernel()
			defer k.Shutdown()
			c := Build(k, spec)
			n := spec.Workers
			agents := make([]rl.Agent, n)
			pins := make([]*pinAgent, n)
			for i := range agents {
				pins[i] = newPinAgent(i, nFloats)
				agents[i] = pins[i]
			}
			var stats *RunStats
			var committed, discarded int64
			var hash uint64
			if tc.mode == ModePS {
				services := make([]Service, n)
				for i := range services {
					services[i] = c.Client(i)
				}
				stats = RunSync(k, agents, services, fastTiming(3))
				h := fnv.New64a()
				for _, a := range pins {
					h.Write(binary.LittleEndian.AppendUint64(nil, a.hash.Sum64()))
				}
				hash = h.Sum64()
			} else {
				master := newPinAgent(99, nFloats)
				as := RunAsyncPS(k, agents, master, c.PS, AsyncConfig{Updates: 20, StalenessBound: 0,
					LocalCompute: 120 * time.Microsecond, WeightUpdate: 15 * time.Microsecond})
				stats, committed, discarded, hash = &as.RunStats, as.Committed, as.Discarded, master.hash.Sum64()
			}
			if stats.Total != tc.total || stats.MeanIter() != tc.meanIter ||
				committed != tc.committed || discarded != tc.discarded || hash != tc.hash {
				t.Fatalf("got total %v, mean iter %v, committed/discarded %d/%d, hash %#x; pinned %v, %v, %d/%d, %#x",
					stats.Total, stats.MeanIter(), committed, discarded, hash,
					tc.total, tc.meanIter, tc.committed, tc.discarded, tc.hash)
			}
		})
	}
}
