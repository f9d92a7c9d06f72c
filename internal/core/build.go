package core

import (
	"fmt"

	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
)

// The builder API. A ClusterSpec names a topology and an aggregation
// mode as data; Build turns it into a running cluster. It is the one
// way to construct a cluster.

// Topology selects the physical fabric.
type Topology int

const (
	// TopoStar is one switch with every worker (and any server) on it.
	TopoStar Topology = iota
	// TopoTree is the two-level rack hierarchy: ToRs under one root.
	TopoTree
	// TopoThreeTier is the ToR → AGG → Core hierarchy of Figure 10.
	TopoThreeTier
	// TopoFatTree is the k-ary fat-tree (in-switch mode only).
	TopoFatTree
)

func (t Topology) String() string {
	switch t {
	case TopoStar:
		return "star"
	case TopoTree:
		return "tree"
	case TopoThreeTier:
		return "3tier"
	case TopoFatTree:
		return "fattree"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// Mode selects the aggregation strategy running over the fabric.
type Mode int

const (
	// ModeISW is in-switch aggregation (the paper's system).
	ModeISW Mode = iota
	// ModePS is the synchronous parameter server baseline.
	ModePS
	// ModeAsyncPS is the asynchronous parameter server baseline.
	ModeAsyncPS
	// ModeAllReduce is the Ring-AllReduce baseline.
	ModeAllReduce
)

func (m Mode) String() string {
	switch m {
	case ModeISW:
		return "isw"
	case ModePS:
		return "ps"
	case ModeAsyncPS:
		return "async-ps"
	case ModeAllReduce:
		return "allreduce"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ClusterSpec is the declarative description Build consumes.
type ClusterSpec struct {
	Topology Topology
	Mode     Mode

	// Workers is the worker count (star and tree topologies; tree pairs
	// it with PerRack and tolerates a partial last rack). Three-tier and
	// fat-tree derive their count from the fabric shape instead.
	Workers int
	// PerRack is the rack width for TopoTree.
	PerRack int
	// AGGs, ToRsPerAGG, HostsPerToR shape TopoThreeTier.
	AGGs, ToRsPerAGG, HostsPerToR int
	// KAry, HostsPerEdge shape TopoFatTree (k pods of k/2 edge switches).
	KAry, HostsPerEdge int

	// ModelFloats is the gradient length.
	ModelFloats int
	// Shards is the parameter-server shard count for the PS modes;
	// 0 or 1 is the paper's single-server baseline.
	Shards int

	// Compression selects the gradient wire scheme for the whole job
	// (CompNone: the paper's raw float32). Validate documents which
	// mode×scheme pairings are supported; Build rejects the rest. For
	// ModeISW the value is copied into the ISW config (and a non-zero
	// ISWConfig.Compression on a spec with CompNone is honoured), so
	// either field may name the scheme.
	Compression protocol.Compression

	// Link is the worker access link (zero value: 10 GbE). Uplink feeds
	// ToR→root / ToR→AGG / edge→AGG tiers and CoreLink the AGG→core tier;
	// each zero value inherits the next-lower tier's config (so a spec
	// naming only Link runs a uniform fabric; the paper's rack trees name
	// a 40 GbE Uplink explicitly).
	Link, Uplink, CoreLink netsim.LinkConfig

	// Exactly the config matching Mode is consulted; nil selects the
	// defaults (DefaultISWConfig and friends).
	ISW *ISWConfig
	PS  *PSConfig
	AR  *ARConfig

	// Dedup arms the contributor bitmap on every aggregation switch —
	// the prerequisite for targeted (non-storm) loss recovery, shadow
	// slots notwithstanding. In-switch mode only.
	Dedup bool
	// LivenessHorizon, when positive, lets a switch evict a contributor
	// not heard from for this long while resolving a Help — how a round
	// completes over the survivors after a permanent worker crash.
	// In-switch mode only; implies Dedup.
	LivenessHorizon sim.Time

	// Faults, when non-nil, is applied to the built cluster
	// (Cluster.ApplyFaults) before Build returns.
	Faults *netsim.FaultPlan
}

// Cluster is Build's result: the spec, the kernel, and exactly one of
// the mode-specific cluster handles populated.
type Cluster struct {
	Spec ClusterSpec
	k    *sim.Kernel

	ISW *ISWCluster
	PS  *PSCluster
	AR  *ARCluster
}

// Kernel returns the simulation kernel the cluster was built on.
func (c *Cluster) Kernel() *sim.Kernel { return c.k }

// Client returns worker i's aggregation handle, whichever mode is live.
func (c *Cluster) Client(i int) Service {
	switch {
	case c.ISW != nil:
		return c.ISW.Client(i)
	case c.PS != nil:
		return c.PS.Client(i)
	case c.AR != nil:
		return c.AR.Client(i)
	}
	panic("core: empty Cluster")
}

// Workers returns the worker hosts, whichever mode is live.
func (c *Cluster) Workers() []*netsim.Host {
	switch {
	case c.ISW != nil:
		return c.ISW.Workers()
	case c.PS != nil:
		return c.PS.Workers()
	case c.AR != nil:
		return c.AR.Workers()
	}
	panic("core: empty Cluster")
}

// Switches returns the aggregation switches (in-switch mode; empty for
// the baselines, which run over plain forwarding switches).
func (c *Cluster) Switches() []*switchnet.ISwitch {
	if c.ISW != nil {
		return c.ISW.Switches()
	}
	return nil
}

// scheme resolves the spec's effective compression: the spec-level
// field wins; a ModeISW spec may instead name it on the ISW config.
func (s ClusterSpec) scheme() protocol.Compression {
	if s.Compression != protocol.CompNone {
		return s.Compression
	}
	if s.Mode == ModeISW && s.ISW != nil {
		return s.ISW.Compression
	}
	return protocol.CompNone
}

// Validate checks the spec's compression scheme against its aggregation
// mode, returning a descriptive error for unsupported pairings. Build
// calls it and panics on failure; tests and experiment drivers may call
// it directly to probe support.
func (s ClusterSpec) Validate() error {
	scheme := s.scheme()
	if !scheme.Valid() {
		return fmt.Errorf("core: unknown compression scheme Compression(%d)", uint8(scheme))
	}
	switch scheme {
	case protocol.CompFP16:
		switch {
		case s.Mode == ModeISW, (s.Mode == ModePS || s.Mode == ModeAsyncPS) && s.Shards <= 1:
			// Supported: one aggregation point that re-rounds emissions.
		default:
			where := s.Mode.String()
			if s.Shards > 1 {
				where = fmt.Sprintf("%v with %d shards", s.Mode, s.Shards)
			}
			return fmt.Errorf("core: fp16 compression is not supported under %s: the scheme needs a single aggregation point that re-rounds emissions (in-switch or one parameter server); sharded and ring strategies splice raw float32 chunks between peers", where)
		}
	case protocol.CompInt32Block:
		if s.Mode != ModeISW {
			return fmt.Errorf("core: int32block compression requires ModeISW (got %v): only the in-switch integer datapath has the saturating adders and emission narrowing the wire format assumes", s.Mode)
		}
	case protocol.CompTopK:
		if s.Mode != ModeISW {
			return fmt.Errorf("core: topk compression requires ModeISW (got %v): the sparse scatter-add lives in the switch accelerator", s.Mode)
		}
		if s.ISW != nil && s.ISW.FloatsPerPacket != 0 && s.ISW.FloatsPerPacket != protocol.FloatsPerPacket {
			return fmt.Errorf("core: topk compression requires the default per-packet payload (%d floats): block-local sparse indices are sized to the MTU segment grid, got %d", protocol.FloatsPerPacket, s.ISW.FloatsPerPacket)
		}
	}
	return nil
}

// Build constructs the cluster a spec describes. It panics on a
// malformed spec or an unsupported topology×mode pairing (construction
// is test/experiment setup; errors there are programming mistakes).
func Build(k *sim.Kernel, spec ClusterSpec) *Cluster {
	if err := spec.Validate(); err != nil {
		panic("core: Build: " + err.Error())
	}
	link := spec.Link
	if link == (netsim.LinkConfig{}) {
		link = netsim.TenGbE()
	}
	uplink := spec.Uplink
	if uplink == (netsim.LinkConfig{}) {
		uplink = link
	}
	coreLink := spec.CoreLink
	if coreLink == (netsim.LinkConfig{}) {
		coreLink = uplink
	}
	if spec.ModelFloats <= 0 {
		panic("core: Build needs ModelFloats > 0")
	}

	c := &Cluster{Spec: spec, k: k}
	switch spec.Mode {
	case ModeISW:
		c.ISW = buildISW(k, spec, link, uplink, coreLink)
	case ModePS, ModeAsyncPS:
		c.PS = buildPS(k, spec, link, uplink)
	case ModeAllReduce:
		cfg := DefaultARConfig()
		if spec.AR != nil {
			cfg = *spec.AR
		}
		switch spec.Topology {
		case TopoStar:
			c.AR = newARCluster(k, spec.Workers, spec.ModelFloats, link, cfg)
		case TopoTree:
			c.AR = newARClusterTree(k, spec.Workers, rackWidth(spec), spec.ModelFloats, link, uplink, cfg)
		default:
			panic(fmt.Sprintf("core: Build: allreduce over %v is not supported", spec.Topology))
		}
	default:
		panic(fmt.Sprintf("core: Build: unknown mode %v", spec.Mode))
	}

	if spec.Faults != nil {
		if err := c.ApplyFaults(spec.Faults); err != nil {
			panic("core: Build: " + err.Error())
		}
	}
	return c
}

func rackWidth(spec ClusterSpec) int {
	if spec.PerRack > 0 {
		return spec.PerRack
	}
	return spec.Workers // one rack
}

func buildISW(k *sim.Kernel, spec ClusterSpec, link, uplink, coreLink netsim.LinkConfig) *ISWCluster {
	cfg := DefaultISWConfig()
	if spec.ISW != nil {
		cfg = *spec.ISW
	}
	cfg.Compression = spec.scheme()
	var c *ISWCluster
	switch spec.Topology {
	case TopoStar:
		sc := switchnet.BuildStar(k, spec.Workers, link)
		c = &ISWCluster{
			workers: sc.Workers, n: spec.ModelFloats, h: spec.Workers, cfg: cfg,
			StarSwitch: sc.IS,
		}
		for range sc.Workers {
			c.target = append(c.target, sc.IS.Addr())
		}
	case TopoTree:
		tc := switchnet.BuildTreeN(k, spec.Workers, rackWidth(spec), link, uplink)
		c = &ISWCluster{
			workers: tc.Workers, n: spec.ModelFloats, h: len(tc.Workers), cfg: cfg,
			Tree: tc,
		}
		for i := range tc.Workers {
			c.target = append(c.target, tc.ToROf(i).Addr())
		}
	case TopoThreeTier:
		tc := switchnet.BuildThreeTier(k, spec.AGGs, spec.ToRsPerAGG, spec.HostsPerToR, link, uplink, coreLink)
		c = &ISWCluster{
			workers: tc.Workers, n: spec.ModelFloats, h: len(tc.Workers), cfg: cfg,
			ThreeTier: tc,
		}
		for i := range tc.Workers {
			c.target = append(c.target, tc.ToROf3(i).Addr())
		}
	case TopoFatTree:
		fc := switchnet.BuildFatTree(k, spec.KAry, spec.HostsPerEdge, link, uplink, coreLink)
		c = &ISWCluster{
			workers: fc.Workers, n: spec.ModelFloats, h: len(fc.Workers), cfg: cfg,
			FatTree: fc,
		}
		for i := range fc.Workers {
			c.target = append(c.target, fc.EdgeOfWorker(i).Addr())
		}
	default:
		panic(fmt.Sprintf("core: Build: unknown topology %v", spec.Topology))
	}
	if spec.Dedup || spec.LivenessHorizon > 0 {
		for _, is := range c.Switches() {
			is.SetDedup(true)
			if spec.LivenessHorizon > 0 {
				is.SetLivenessHorizon(spec.LivenessHorizon)
			}
		}
	}
	if cfg.Compression != protocol.CompNone {
		// Pin the scheme on every aggregation level: parent switches
		// never see a worker Join, yet must interpret and re-emit their
		// children's partials under the job's wire format.
		for _, is := range c.Switches() {
			is.SetCompression(cfg.Job, cfg.Compression, uint64(spec.ModelFloats))
		}
	}
	return c
}

func newARClusterTree(k *sim.Kernel, totalWorkers, perRack, modelFloats int, edge, uplink netsim.LinkConfig, cfg ARConfig) *ARCluster {
	tr := netsim.BuildRacksN(k, totalWorkers, perRack, edge, uplink)
	return &ARCluster{workers: tr.Hosts, n: modelFloats, cfg: cfg}
}

// ApplyFaults installs a declarative fault plan onto the built cluster:
// link faults resolve worker indices to NIC port pairs, crash schedules
// attach to the in-switch clients, and switch failures are timed onto
// the kernel. Call before Run (fault times are absolute virtual times;
// the kernel is at 0 during setup).
func (c *Cluster) ApplyFaults(fp *netsim.FaultPlan) error {
	if err := fp.Validate(); err != nil {
		return err
	}
	workers := c.Workers()
	for _, lf := range fp.Links {
		if lf.Worker >= len(workers) {
			return fmt.Errorf("core: link fault worker %d out of range (%d workers)", lf.Worker, len(workers))
		}
		up := workers[lf.Worker].Port()
		fp.ApplyLink(lf, up, up.Peer())
	}
	if len(fp.Crashes) > 0 || len(fp.Switches) > 0 {
		if c.ISW == nil {
			return fmt.Errorf("core: crash/switch faults need the in-switch mode")
		}
	}
	for _, cf := range fp.Crashes {
		if cf.Worker >= len(workers) {
			return fmt.Errorf("core: crash fault worker %d out of range (%d workers)", cf.Worker, len(workers))
		}
		if c.ISW.cfg.RecoveryTimeout <= 0 {
			return fmt.Errorf("core: crash faults need ISWConfig.RecoveryTimeout armed")
		}
		c.ISW.ScheduleCrash(cf)
	}
	if len(fp.Switches) > 0 {
		switches := c.ISW.Switches()
		if c.ISW.cfg.FailoverAfter <= 0 {
			return fmt.Errorf("core: switch faults need ISWConfig.FailoverAfter armed")
		}
		for _, sf := range fp.Switches {
			if sf.Switch >= len(switches) {
				return fmt.Errorf("core: switch fault index %d out of range (%d switches)", sf.Switch, len(switches))
			}
			targets := switches
			if sf.Switch >= 0 {
				targets = switches[sf.Switch : sf.Switch+1]
			}
			for _, is := range targets {
				is := is
				c.k.After(sf.At, is.Fail)
			}
		}
	}
	return nil
}
