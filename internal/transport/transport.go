// Package transport runs the iSwitch protocol over real UDP sockets.
//
// The discrete-event simulation (internal/netsim, internal/switchnet)
// produces the paper's timing results; this package proves the protocol
// is wire-real: cmd/iswitchd is a software emulation of the in-switch
// aggregator that sums genuine UDP datagrams from worker processes,
// exactly as the NetFPGA data plane does in hardware. Switch is the UDP
// driver of the switch core the simulator also drives (switchcore).
//
// Because a portable UDP socket cannot set the IP ToS byte per packet,
// the ToS tag travels as the first byte of the UDP payload; the rest of
// the payload is the standard iSwitch framing (protocol.MarshalPayload).
// It carries no JobID and no compression tag: one job, raw float32.
package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"iswitch/internal/protocol"
	"iswitch/internal/switchcore"
)

// maxDatagram bounds a received datagram: ToS byte + Seg + full payload.
const maxDatagram = 1 + protocol.SegFieldLen + 4*protocol.FloatsPerPacket + 64

// Encode frames a packet for UDP transport: [ToS][payload].
func Encode(p *protocol.Packet) ([]byte, error) {
	return appendEncoded(nil, p)
}

// appendEncoded appends the UDP framing of p to dst, so per-packet send
// paths can reuse one scratch buffer instead of allocating.
func appendEncoded(dst []byte, p *protocol.Packet) ([]byte, error) {
	if !p.IsISwitch() {
		return nil, fmt.Errorf("transport: ToS %#02x is not an iSwitch packet", p.ToS)
	}
	dst = append(dst, p.ToS)
	return protocol.AppendPayload(dst, p)
}

// Decode parses a UDP datagram produced by Encode. src/dst describe the
// UDP endpoints (the kernel owns the real headers). Only what Encode can
// produce decodes: control and data datagrams, data of at most one
// packet's worth of float32s.
func Decode(src, dst protocol.Addr, datagram []byte) (*protocol.Packet, error) {
	p := new(protocol.Packet)
	if err := decodeInto(p, src, dst, datagram); err != nil {
		return nil, err
	}
	return p, nil
}

// decodeInto is Decode into a reused packet (protocol.UnmarshalPayloadInto).
func decodeInto(p *protocol.Packet, src, dst protocol.Addr, datagram []byte) error {
	if len(datagram) < 1 {
		return fmt.Errorf("transport: empty datagram")
	}
	tos := datagram[0]
	if tos != protocol.ToSControl && tos != protocol.ToSData {
		return fmt.Errorf("transport: ToS %#02x is not an iSwitch datagram", tos)
	}
	if tos == protocol.ToSData && len(datagram) > 1+protocol.SegFieldLen+4*protocol.FloatsPerPacket {
		return fmt.Errorf("transport: data datagram of %d bytes exceeds one packet", len(datagram))
	}
	return protocol.UnmarshalPayloadInto(p, src, dst, tos, datagram[1:])
}

// toAddr converts a UDP endpoint into the protocol's IPv4 address; it
// reports false for an IPv6 peer, which the protocol cannot name.
func toAddr(ap netip.AddrPort) (protocol.Addr, bool) {
	ip := ap.Addr().Unmap()
	if !ip.Is4() {
		return protocol.Addr{}, false
	}
	return protocol.Addr{IP: ip.As4(), Port: ap.Port()}, true
}

// Switch is the software in-switch aggregator: a UDP server that feeds
// every datagram to the switch core and writes the core's emissions
// back out as datagrams.
type Switch struct {
	conn  *net.UDPConn
	start time.Time // the core's clock origin

	mu   sync.Mutex
	core *switchcore.Core  // guarded by mu
	drv  switchcore.Driver // guarded by mu (udpDriver keeps scratch)
}

// switchRecvBuf asks the kernel for a deep socket receive queue: a full
// fan-in of gradient bursts arrives back-to-back, and the default buffer
// (often 208 KiB) drops the tail of even one 4 MB model's worth.
const switchRecvBuf = 4 << 20

// ListenSwitch starts an aggregator on addr (e.g. "127.0.0.1:0").
func ListenSwitch(addr string) (*Switch, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	// Best-effort: the OS clamps to its rmem limit; the clamped value
	// still beats the default.
	_ = conn.SetReadBuffer(switchRecvBuf)
	// self only has to match the Dst that handle stamps on every
	// datagram, so an IPv6 bind, which has no IPv4 form, may leave it zero.
	self, _ := toAddr(conn.LocalAddr().(*net.UDPAddr).AddrPort())
	s := newSwitch(self, &udpDriver{conn: conn})
	s.conn = conn
	return s, nil
}

// newSwitch builds the adapter around a fresh core emitting through drv.
func newSwitch(self protocol.Addr, drv switchcore.Driver) *Switch {
	core := switchcore.New(self, drv)
	// UDP workers retransmit on loss; dedup keeps that idempotent.
	core.SetDedup(true)
	return &Switch{start: time.Now(), core: core, drv: drv}
}

// Addr returns the bound UDP address.
func (s *Switch) Addr() string { return s.conn.LocalAddr().String() }

// Close shuts the socket down, terminating Serve.
func (s *Switch) Close() error { return s.conn.Close() }

// Serve processes datagrams until the socket closes. Run it on its own
// goroutine; it returns nil after Close.
func (s *Switch) Serve() error { return s.ServeN(1) }

// ServeN drains the socket with workers reader goroutines sharing the
// bound socket (reads are safe for concurrent use; the kernel hands
// each datagram to exactly one reader). Extra readers keep the socket
// queue short while a handler holds the switch mutex for an aggregation.
// Blocks until the socket closes, then returns nil.
func (s *Switch) ServeN(workers int) error {
	if workers <= 1 {
		s.serveLoop(make([]byte, maxDatagram))
		return nil
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One reusable receive buffer per reader: the handlers copy
			// what they keep, so reads never allocate.
			s.serveLoop(make([]byte, maxDatagram))
		}()
	}
	wg.Wait()
	return nil
}

func (s *Switch) serveLoop(buf []byte) {
	pkt := new(protocol.Packet) // decode scratch: the core keeps nothing of it
	for {
		n, peer, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return // closed
		}
		s.handle(pkt, peer, buf[:n])
	}
}

// handle decodes one datagram from peer into pkt and runs it through the
// switch core. Datagrams that do not decode, or come from a peer the
// protocol cannot address, are dropped.
func (s *Switch) handle(pkt *protocol.Packet, peer netip.AddrPort, datagram []byte) {
	src, ok := toAddr(peer)
	if !ok {
		return
	}
	if decodeInto(pkt, src, s.core.Addr(), datagram) != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if pkt.IsControl() && pkt.Action == protocol.ActionJoin &&
		len(pkt.Value) == 9 && protocol.Compression(pkt.Value[8]) != protocol.CompNone {
		// The UDP framing carries raw float32 only: a Join negotiating
		// another scheme would switch the job to frames this daemon can
		// neither decode nor encode.
		s.core.ControlIn++
		s.drv.Send(protocol.NewControl(s.core.Addr(), src, protocol.ActionAck, protocol.AckFail))
		return
	}
	s.core.Handle(time.Since(s.start), pkt, false)
}

// udpDriver writes the core's emissions to the socket.
type udpDriver struct {
	conn   *net.UDPConn
	encBuf []byte // encode scratch, guarded by Switch.mu
}

// Send encodes pkt and writes it to pkt.Dst.
func (d *udpDriver) Send(pkt *protocol.Packet) {
	dst := pkt.Dst
	buf, err := appendEncoded(d.encBuf[:0], pkt)
	pkt.Release()
	if err != nil {
		return
	}
	d.encBuf = buf[:0]
	_, _ = d.conn.WriteToUDPAddrPort(buf, netip.AddrPortFrom(netip.AddrFrom4(dst.IP), dst.Port))
}

// SendParent drops pkt: the UDP switch is always the root.
func (d *udpDriver) SendParent(pkt *protocol.Packet) { pkt.Release() }

// After runs fn at once: the software aggregator models no datapath
// latency.
func (d *udpDriver) After(_ time.Duration, fn func()) { fn() }

// Members reports the current membership size.
func (s *Switch) Members() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Membership().Count()
}

// Counters returns a consistent snapshot of the activity counters
// (safe to call while Serve is running).
func (s *Switch) Counters() (dataIn, broadcasts, controlIn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.DataIn, s.core.Broadcasts, s.core.ControlIn
}

// Client is a worker-side handle: it joins a switch and aggregates
// gradient vectors through it. A Client is single-goroutine: send and
// recv share scratch buffers.
//
// Every Aggregate call is one round, and its contributions carry the
// round's tag in the upper bits of Seg (protocol.TagSeg), so the switch
// keeps rounds apart and re-serves a lost broadcast from its shadow
// slot instead of asking peers to resend. Clients of one job must
// therefore call Aggregate in lockstep from their first round on.
type Client struct {
	conn    *net.UDPConn
	n       int
	round   uint64
	asm     *protocol.Assembler
	encBuf  []byte
	recvBuf []byte
	rx      protocol.Packet // recv's decode scratch
	// Timeout bounds each receive while collecting an aggregate.
	Timeout time.Duration
}

// Dial connects to a switch for vectors of modelFloats elements.
func Dial(switchAddr string, modelFloats int) (*Client, error) {
	ua, err := net.ResolveUDPAddr("udp", switchAddr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, n: modelFloats,
		asm:     protocol.NewAssembler(modelFloats),
		recvBuf: make([]byte, maxDatagram),
		Timeout: 5 * time.Second}, nil
}

// Close releases the socket.
func (c *Client) Close() error { return c.conn.Close() }

// send frames and writes one packet.
func (c *Client) send(pkt *protocol.Packet) error {
	buf, err := appendEncoded(c.encBuf[:0], pkt)
	if err != nil {
		return err
	}
	c.encBuf = buf[:0]
	_, err = c.conn.Write(buf)
	return err
}

// recv reads the next decodable packet within the client timeout,
// skipping datagrams that do not decode. The packet is valid until the
// next recv.
func (c *Client) recv() (*protocol.Packet, error) {
	if err := c.conn.SetReadDeadline(time.Now().Add(c.Timeout)); err != nil {
		return nil, err
	}
	for {
		n, err := c.conn.Read(c.recvBuf)
		if err != nil {
			return nil, err
		}
		if decodeInto(&c.rx, protocol.Addr{}, protocol.Addr{}, c.recvBuf[:n]) == nil {
			return &c.rx, nil
		}
	}
}

// control sends a control action and waits for its Ack, skipping any
// other packet that arrives first.
func (c *Client) control(action protocol.Action, value []byte) error {
	if err := c.send(protocol.NewControl(protocol.Addr{}, protocol.Addr{}, action, value)); err != nil {
		return err
	}
	for {
		pkt, err := c.recv()
		if err != nil {
			return fmt.Errorf("transport: %v: %w", action, err)
		}
		if pkt.IsControl() && pkt.Action == protocol.ActionAck {
			if len(pkt.Value) != 1 || pkt.Value[0] != 1 {
				return fmt.Errorf("transport: %v rejected", action)
			}
			return nil
		}
	}
}

// Join registers with the switch and waits for the Ack.
func (c *Client) Join() error {
	return c.control(protocol.ActionJoin, protocol.JoinValue(uint64(c.n)))
}

// SetH issues a SetH control action and waits for the Ack.
func (c *Client) SetH(h uint32) error {
	return c.control(protocol.ActionSetH, protocol.SetHValue(h))
}

// contribute sends this worker's share of one (round-tagged) segment.
func (c *Client) contribute(grad []float32, tagged uint64) error {
	lo, hi := protocol.SegmentRange(c.n, protocol.SegIndex(tagged))
	return c.send(&protocol.Packet{ToS: protocol.ToSData, Seg: tagged, Data: grad[lo:hi]})
}

// Aggregate contributes grad and blocks until the aggregated sum
// arrives. A receive timeout sends a Help for every missing segment:
// the switch re-serves emitted segments from its shadow slots and asks
// the missing contributors, this worker included, to resend the rest.
// Aggregate fails when a timeout passes with no progress since the last
// Help. Data and Helps of any other round are ignored.
func (c *Client) Aggregate(grad []float32) ([]float32, error) {
	if len(grad) != c.n {
		return nil, fmt.Errorf("transport: gradient len %d, want %d", len(grad), c.n)
	}
	c.round++
	tag := protocol.RoundTag(c.round)
	segs := uint64(protocol.SegmentCount(c.n))
	for seg := uint64(0); seg < segs; seg++ {
		if err := c.contribute(grad, tag|seg); err != nil {
			return nil, err
		}
	}
	c.asm.Reset()
	helped := false
	for !c.asm.Complete() {
		pkt, err := c.recv()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && !helped {
				helped = true
				for _, seg := range c.asm.Missing() {
					if err := c.send(protocol.NewControl(protocol.Addr{}, protocol.Addr{},
						protocol.ActionHelp, protocol.HelpValue(tag|seg))); err != nil {
						return nil, err
					}
				}
				continue
			}
			return nil, fmt.Errorf("transport: aggregate: %w", err)
		}
		switch {
		case pkt.IsData():
			if protocol.SegRound(pkt.Seg) != protocol.SegRound(tag) {
				continue // a stale re-serve or another round's broadcast
			}
			pkt.Seg = protocol.SegIndex(pkt.Seg)
			missing := c.asm.Remaining()
			if c.asm.Add(pkt) == nil && c.asm.Remaining() < missing {
				helped = false // progress: a further stall may Help again
			}
		case pkt.IsControl() && pkt.Action == protocol.ActionHelp:
			seg, err := protocol.ParseHelp(pkt.Value)
			if err != nil || protocol.SegRound(seg) != protocol.SegRound(tag) ||
				protocol.SegIndex(seg) >= segs {
				continue
			}
			if err := c.contribute(grad, seg); err != nil {
				return nil, err
			}
		}
	}
	return append([]float32(nil), c.asm.Vector()...), nil
}
