package core

import (
	"fmt"

	"iswitch/internal/accel"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/tensor/kernels"
)

// Parameter-server aggregation (Figure 1a): every worker ships its full
// gradient to the server hosts behind the switch; the servers sum them
// and ship the result back to every worker. Four network hops per
// round. With one server (the paper's baseline) its single link
// serializes N gradient vectors in each direction — the central
// bottleneck the paper measures.
//
// The model vector is partitioned into S contiguous shards, each owned
// by its own server host (production PS designs à la MXNet/SwitchML
// baselines). Workers scatter per-shard gradient segments (a data
// packet's Seg index picks its shard by range check), each shard sums
// and replies with its slice, and workers reassemble the full vector
// from all shards' replies. Sharding splits the central bottleneck link
// across S NICs and parallelizes the server-side summation/update work,
// which tightens the baseline the iSwitch speedups are measured
// against. Shard boundaries align to packet-segment boundaries so that
// one data packet never straddles two shards; at S=1 the one shard owns
// the whole vector and every cost is charged unscaled.
//
// The reference PS design updates weights at the server and returns
// them; returning the summed gradient instead is byte-identical on the
// wire (weights and gradients have the same size) and mathematically
// equivalent since every worker applies the same deterministic
// optimizer step. Keeping the optimizer at the workers lets the PS,
// AR, and iSwitch strategies share one Agent implementation.

// PSConfig carries the software-stack costs of the PS reference design.
type PSConfig struct {
	// PerMessage is charged by the server for each whole-gradient
	// message it receives or sends.
	PerMessage sim.Time
	// WorkerBase is charged by each worker per aggregation round.
	WorkerBase sim.Time
	// SumRate is the server's float32 element-additions per second.
	SumRate float64
	// CopyRate is the server's tensor-staging throughput in bytes/sec,
	// charged on every whole-gradient message in either direction.
	CopyRate float64
	// Tensors is the framework-level tensor messages per gradient
	// (DDPG's dual model ships two); PerMessage is paid per tensor.
	Tensors int
	// MessageFloor is the irreducible size-independent launch cost of a
	// PS message, the lower bound on sharded-PS per-slice costs that
	// scale PerMessage by the shard's share of the model.
	MessageFloor sim.Time
	// AsyncUpdateExtra is the additional server time per accepted update
	// in the asynchronous variant (perfmodel.Workload.AsyncPSUpdateCost).
	AsyncUpdateExtra sim.Time
}

// DefaultPSConfig mirrors the measured reference implementation.
func DefaultPSConfig() PSConfig {
	return PSConfig{
		PerMessage:   perfmodel.PSPerMessage,
		WorkerBase:   perfmodel.PSWorkerBase,
		SumRate:      perfmodel.PSSumRate,
		CopyRate:     perfmodel.PSCopyRate,
		Tensors:      1,
		MessageFloor: perfmodel.PSMessageFloor,
	}
}

// PSConfigFor adapts the default PS config to a paper workload.
func PSConfigFor(w perfmodel.Workload) PSConfig {
	cfg := DefaultPSConfig()
	cfg.Tensors = w.Tensors()
	cfg.AsyncUpdateExtra = w.AsyncPSUpdateCost
	return cfg
}

// msgCost is the server's software cost for one whole-gradient message.
func (c PSConfig) msgCost(floats int) sim.Time {
	t := c.Tensors
	if t < 1 {
		t = 1
	}
	return sim.Time(t)*c.PerMessage + sim.Time(float64(floats*4)/c.CopyRate*1e9)
}

// scaleByShare scales a full-model cost by a shard's element share
// (exact at share 1: a one-shard cluster charges the unscaled cost).
func scaleByShare(d sim.Time, shardFloats, modelFloats int) sim.Time {
	if shardFloats >= modelFloats {
		return d
	}
	return sim.Time(float64(d) * float64(shardFloats) / float64(modelFloats))
}

// shardMsgCost is the server-side software cost of one async framework
// message (a pull reply or a push receive) for a shard of shardFloats
// elements: the per-message cost scaled by the slice share (both paths
// are dominated by staging the slice), floored at MessageFloor (the
// size-independent launch cost). At one shard this is PerMessage — the
// async baseline's message cost — whenever PerMessage is at least the
// floor, as in DefaultPSConfig.
func (c PSConfig) shardMsgCost(shardFloats, modelFloats int) sim.Time {
	cost := scaleByShare(c.PerMessage, shardFloats, modelFloats)
	if cost < c.MessageFloor {
		cost = c.MessageFloor
	}
	return cost
}

// MaxPSShards bounds the shard count (shard addresses live in one
// /24-style subnet byte).
const MaxPSShards = 128

// PSShardAddr returns shard s's server address. Shards live on the
// 10.0.1.x subnet, clear of worker addresses (10.r.0.x) at any worker
// count.
func PSShardAddr(s int) protocol.Addr {
	if s < 0 || s >= MaxPSShards {
		panic(fmt.Sprintf("core: shard index %d out of range [0,%d)", s, MaxPSShards))
	}
	return protocol.AddrFrom(10, 0, 1, byte(10+s), 9990)
}

// PSCluster is a star or rack tree with S parameter-server shard hosts,
// each owning a contiguous slice of the model vector.
type PSCluster struct {
	Servers []*netsim.Host // shard s's host is Servers[s]
	workers []*netsim.Host
	n       int
	cfg     PSConfig
	// segLo[s] .. segLo[s+1] is the half-open packet-segment range of
	// shard s; len(segLo) == NumShards()+1.
	segLo []int

	// scheme is the job's gradient wire format. The PS path supports
	// CompNone and, at one shard, CompFP16 (gradients and sync replies
	// rounded through half precision and carried at 2 B/element; async
	// weight pulls stay raw float32 so the authoritative weights never
	// lose precision).
	scheme protocol.Compression
}

// buildPS builds the workers and spec.Shards server hosts (0 means one)
// on a star or under a tree's root switch, and spawns the synchronous
// shard servers for ModePS (RunAsyncPS spawns its own). The effective
// shard count is clamped to the model's packet-segment count (a shard
// must own at least one segment).
func buildPS(k *sim.Kernel, spec ClusterSpec, link, uplink netsim.LinkConfig) *PSCluster {
	cfg := DefaultPSConfig()
	if spec.PS != nil {
		cfg = *spec.PS
	}
	if spec.Shards < 0 {
		panic(fmt.Sprintf("core: Build: %d PS shards", spec.Shards))
	}
	totalSegs := max(protocol.SegmentCount(spec.ModelFloats), 1)
	nShards := min(max(spec.Shards, 1), totalSegs)
	if nShards > MaxPSShards {
		panic(fmt.Sprintf("core: %d shards exceeds MaxPSShards %d", nShards, MaxPSShards))
	}
	c := &PSCluster{n: spec.ModelFloats, cfg: cfg, scheme: spec.scheme()}
	var attach func(protocol.Addr) *netsim.Host
	switch spec.Topology {
	case TopoStar:
		star := netsim.BuildStar(k, spec.Workers, link)
		c.workers = star.Hosts[:spec.Workers]
		attach = func(a protocol.Addr) *netsim.Host { return star.AttachHost(k, a, link) }
	case TopoTree:
		tr := netsim.BuildRacksN(k, spec.Workers, rackWidth(spec), link, uplink)
		c.workers = tr.Hosts
		attach = func(a protocol.Addr) *netsim.Host { return tr.AttachRootHost(k, a, uplink) }
	default:
		panic(fmt.Sprintf("core: Build: %v over %v is not supported", spec.Mode, spec.Topology))
	}
	for s := 0; s < nShards; s++ {
		c.segLo = append(c.segLo, s*totalSegs/nShards)
		c.Servers = append(c.Servers, attach(PSShardAddr(s)))
	}
	c.segLo = append(c.segLo, totalSegs)
	if spec.Mode == ModePS {
		for s := range c.Servers {
			c.startServer(k, s)
		}
	}
	return c
}

// Compression returns the cluster's gradient wire scheme.
func (c *PSCluster) Compression() protocol.Compression { return c.scheme }

// Workers exposes the worker hosts (the servers are separate).
func (c *PSCluster) Workers() []*netsim.Host { return c.workers }

// NumShards returns the effective shard count.
func (c *PSCluster) NumShards() int { return len(c.Servers) }

// ShardElems returns the element range [lo, hi) owned by shard s.
func (c *PSCluster) ShardElems(s int) (lo, hi int) {
	lo, _ = protocol.SegmentRange(c.n, uint64(c.segLo[s]))
	if c.segLo[s+1] > 0 {
		_, hi = protocol.SegmentRange(c.n, uint64(c.segLo[s+1]-1))
	}
	return lo, hi
}

// ShardOf returns the shard owning packet-segment seg (an index-range
// check over the contiguous partition).
func (c *PSCluster) ShardOf(seg uint64) int {
	for s := 1; s < len(c.segLo)-1; s++ {
		if int(seg) < c.segLo[s] {
			return s - 1
		}
	}
	return len(c.Servers) - 1
}

// scatter sends grad from h as data packets, each segment routed to its
// owning shard server with its global Seg index. Packets alias grad;
// under fp16 grad must already be rounded to the wire precision.
func (c *PSCluster) scatter(h *netsim.Host, grad []float32) {
	for s, srv := range c.Servers {
		lo, hi := c.ShardElems(s)
		for _, pkt := range protocol.Segment(h.Addr, srv.Addr, grad[lo:hi]) {
			pkt.Seg += uint64(c.segLo[s])
			pkt.Enc = c.scheme
			h.Send(pkt)
		}
	}
}

// startServer spawns shard s's synchronous aggregation process: gather
// every worker's shard slice, sum, reply to each worker of the round.
func (c *PSCluster) startServer(k *sim.Kernel, s int) {
	srv := c.Servers[s]
	lo, hi := c.ShardElems(s)
	nShard := hi - lo
	segBase := uint64(c.segLo[s])
	k.Spawn(fmt.Sprintf("ps-server-%d", s), func(p *sim.Proc) {
		asm := make(map[protocol.Addr]*protocol.Assembler)
		for {
			// Gather one shard slice from each worker.
			var round []protocol.Addr
			sum := make([]float32, nShard)
			for len(round) < len(c.workers) {
				pkt := srv.Recv(p)
				if !pkt.IsData() {
					continue
				}
				a := asm[pkt.Src]
				if a == nil {
					a = protocol.NewAssembler(nShard)
					asm[pkt.Src] = a
				}
				// Remap the global segment index into shard-local space
				// (misrouted segments wrap out of range and are dropped).
				if err := a.AddFloats(pkt.Seg-segBase, pkt.Data); err != nil {
					continue
				}
				if a.Complete() {
					p.Sleep(c.cfg.msgCost(nShard)) // framework receive cost
					for i, v := range a.Vector() {
						sum[i] += v
					}
					a.Reset()
					round = append(round, pkt.Src)
				}
			}
			// Deferred whole-vector summation happened above per arrival
			// order; charge the vectorized add cost once per round.
			p.Sleep(accel.SumLatency(nShard, len(round), c.cfg.SumRate))
			// Reply to each worker of the round; the server NIC
			// serializes these N slices back-to-back. Under fp16 the
			// reply is rounded through the wire precision once — every
			// worker then applies identical values.
			if c.scheme == protocol.CompFP16 {
				kernels.F16RoundInPlace(sum)
			}
			for _, dst := range round {
				p.Sleep(c.cfg.msgCost(nShard))
				for _, out := range protocol.Segment(srv.Addr, dst, sum) {
					out.Seg += segBase
					out.Enc = c.scheme
					srv.Send(out)
				}
			}
		}
	})
}

// Client returns worker i's aggregation handle.
func (c *PSCluster) Client(i int) Service {
	return &psClient{cluster: c, host: c.workers[i]}
}

type psClient struct {
	cluster *PSCluster
	host    *netsim.Host
	asm     *protocol.Assembler
	fpGrad  []float32 // fp16 rounding scratch
}

// Setup implements Service (the PS design has no handshake).
func (pc *psClient) Setup(*sim.Proc) {}

// H implements Service.
func (pc *psClient) H() int { return len(pc.cluster.workers) }

// Aggregate implements Service: scatter per-shard segments, then gather
// every shard's reply into one full-model assembler. The returned slice
// is the client's reusable assembler buffer (valid until the next
// Aggregate call) — a fresh per-round copy here was the datapath's last
// per-iteration whole-vector allocation.
func (pc *psClient) Aggregate(p *sim.Proc, grad []float32) []float32 {
	p.Sleep(pc.cluster.cfg.WorkerBase)
	if pc.cluster.scheme == protocol.CompFP16 {
		pc.fpGrad = append(pc.fpGrad[:0], grad...)
		kernels.F16RoundInPlace(pc.fpGrad)
		grad = pc.fpGrad
	}
	pc.cluster.scatter(pc.host, grad)
	if pc.asm == nil {
		pc.asm = protocol.NewAssembler(pc.cluster.n)
	} else {
		pc.asm.Reset()
	}
	for !pc.asm.Complete() {
		pkt := pc.host.Recv(p)
		if pkt.IsData() {
			if err := pc.asm.Add(pkt); err != nil {
				continue
			}
		}
	}
	return pc.asm.Vector()
}
