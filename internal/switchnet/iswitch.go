// Package switchnet implements the iSwitch programmable-switch
// extensions (paper §3.2–3.4) on the simulated network: a data plane
// that taps ToS-tagged packets out of the normal forwarding path into
// the aggregation plane (switchcore), forwarding partial aggregates up
// the switch hierarchy and broadcasting completed aggregates back down
// — all without disturbing regular traffic.
package switchnet

import (
	"time"

	"iswitch/internal/accel"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/switchcore"
)

// ISwitch augments a netsim.Switch with the iSwitch control plane and
// the in-switch aggregation accelerator. The augmentation is a
// "bump-in-the-wire": it installs a data-plane tap that diverts only
// ToS-tagged packets; everything else follows the normal lookup tables.
//
// The protocol itself is the embedded switchcore.Core, whose methods
// and counters are promoted here. ISwitch is its discrete-event driver:
// the tap feeds the core at the kernel's current time, and the core's
// emissions leave through the forwarding table, the uplink port, and
// the kernel's timer.
type ISwitch struct {
	*switchcore.Core

	sw     *netsim.Switch
	uplink *netsim.Port // ingress from the parent (broadcasts arrive here)

	// shapers holds the per-port egress shapers installed by
	// LimitJobEgressOn (nil until the first limit; see shaping.go).
	shapers map[*netsim.Port]*perfmodel.EgressShaper
}

// JobCheckpoint is one job's serialized context (switchcore.CheckpointJob).
type JobCheckpoint = switchcore.JobCheckpoint

// MemberWorker marks a worker row of the membership table (Figure 9).
const MemberWorker = switchcore.MemberWorker

// NewMembership returns an empty membership table.
func NewMembership() *switchcore.Membership { return switchcore.NewMembership() }

// Option configures an ISwitch.
type Option func(*ISwitch)

// WithParent makes the switch a non-root level that forwards completed
// local aggregates to parentAddr via uplink. Broadcast packets arriving
// on uplink are replicated to children.
func WithParent(parentAddr protocol.Addr, uplink *netsim.Port) Option {
	return func(is *ISwitch) {
		is.uplink = uplink
		is.SetParent(parentAddr)
	}
}

// WithTenancy arms multi-tenant resource modeling: admitted jobs
// reserve segment-state SRAM from pool, and concurrent jobs' bursts
// contend on bus. Either may be nil to disable that dimension. The
// default job 0 context is never metered — a tenancy-armed switch
// carrying one job times identically to a legacy switch.
func WithTenancy(pool *accel.SRAMPool, bus *accel.SharedBus) Option {
	return func(is *ISwitch) { is.SetTenancy(pool, bus) }
}

// Attach builds the iSwitch extension on top of sw. addr is the
// switch's own protocol address (used as the source of aggregated
// packets and as the destination its children send to).
func Attach(sw *netsim.Switch, addr protocol.Addr, opts ...Option) *ISwitch {
	is := &ISwitch{sw: sw}
	is.Core = switchcore.New(addr, desDriver{is})
	for _, o := range opts {
		o(is)
	}
	sw.SetTap(is.tap)
	return is
}

// Switch returns the underlying forwarding switch.
func (is *ISwitch) Switch() *netsim.Switch { return is.sw }

// tap is the data-plane intercept. It runs in kernel context after the
// switch's forwarding-pipeline delay.
func (is *ISwitch) tap(pkt *protocol.Packet, in *netsim.Port) bool {
	return is.Handle(is.sw.Kernel().Now(), pkt, in != nil && in == is.uplink)
}

// desDriver carries the core's emissions onto the simulated network.
type desDriver struct{ is *ISwitch }

func (d desDriver) Send(pkt *protocol.Packet)       { d.is.sw.Forward(pkt) }
func (d desDriver) SendParent(pkt *protocol.Packet) { d.is.uplink.Send(pkt) }
func (d desDriver) After(dt time.Duration, fn func()) {
	d.is.sw.Kernel().After(dt, fn)
}
