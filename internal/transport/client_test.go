package transport

import (
	"errors"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"iswitch/internal/protocol"
)

// fakeSwitch is a bare UDP socket standing in for the switch, so a test
// scripts exactly what a Client receives and sees exactly what it sends.
type fakeSwitch struct {
	t    *testing.T
	conn *net.UDPConn
	peer *net.UDPAddr // the client, learned from its first datagram
}

func newFakeSwitch(t *testing.T) *fakeSwitch {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &fakeSwitch{t: t, conn: conn}
}

func (f *fakeSwitch) addr() string { return f.conn.LocalAddr().String() }

// recv returns the client's next datagram, decoded.
func (f *fakeSwitch) recv() *protocol.Packet {
	f.t.Helper()
	buf := make([]byte, maxDatagram)
	_ = f.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, peer, err := f.conn.ReadFromUDP(buf)
	if err != nil {
		f.t.Fatalf("fake switch: %v", err)
	}
	f.peer = peer
	pkt, err := Decode(protocol.Addr{}, protocol.Addr{}, buf[:n])
	if err != nil {
		f.t.Fatalf("fake switch: client sent an undecodable datagram: %v", err)
	}
	return pkt
}

// quiet asserts the client sends nothing within d.
func (f *fakeSwitch) quiet(d time.Duration) {
	f.t.Helper()
	buf := make([]byte, maxDatagram)
	_ = f.conn.SetReadDeadline(time.Now().Add(d))
	if n, _, err := f.conn.ReadFromUDP(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		pkt, _ := Decode(protocol.Addr{}, protocol.Addr{}, buf[:n])
		f.t.Fatalf("client sent an unexpected datagram: %+v (%v)", pkt, err)
	}
}

func (f *fakeSwitch) sendRaw(datagram []byte) {
	f.t.Helper()
	if _, err := f.conn.WriteToUDP(datagram, f.peer); err != nil {
		f.t.Fatal(err)
	}
}

func (f *fakeSwitch) send(pkt *protocol.Packet) {
	f.t.Helper()
	b, err := Encode(pkt)
	if err != nil {
		f.t.Fatal(err)
	}
	f.sendRaw(b)
}

func dataPkt(seg uint64, data []float32) *protocol.Packet {
	return &protocol.Packet{ToS: protocol.ToSData, Seg: seg, Data: data}
}

func helpPkt(seg uint64) *protocol.Packet {
	return protocol.NewControl(protocol.Addr{}, protocol.Addr{}, protocol.ActionHelp, protocol.HelpValue(seg))
}

// TestClientRoundTaggedRecovery scripts one round against a fake switch:
// the client must stamp its contributions with the round tag, ignore a
// broadcast and a Help tagged for another round, answer a Help for its
// own round with exactly that segment, and — when a segment is withheld
// — send only a Help for it, never a blind resend of its contribution.
func TestClientRoundTaggedRecovery(t *testing.T) {
	f := newFakeSwitch(t)
	const n = 2*protocol.FloatsPerPacket + 17 // three segments, short last
	c, err := Dial(f.addr(), n)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 150 * time.Millisecond
	grad := make([]float32, n)
	want := make([]float32, n)
	for i := range grad {
		grad[i] = float32(i%13) - 6
		want[i] = 3 * grad[i] // the fake switch "sums" three workers
	}
	seg := func(v []float32, s uint64) []float32 {
		lo, hi := protocol.SegmentRange(n, s)
		return v[lo:hi]
	}

	type result struct {
		sum []float32
		err error
	}
	done := make(chan result, 1)
	go func() {
		sum, err := c.Aggregate(grad)
		done <- result{sum, err}
	}()

	for s := uint64(0); s < 3; s++ {
		p := f.recv()
		if !p.IsData() || p.Seg != protocol.TagSeg(1, s) || !bitsEqual(p.Data, seg(grad, s)) {
			t.Fatalf("contribution %d: got seg %#x (%d floats), want seg %#x", s, p.Seg, len(p.Data), protocol.TagSeg(1, s))
		}
	}
	// A Help tagged for another round gets no answer; one for this round
	// gets exactly the requested contribution. The first datagram back is
	// therefore the answer to the second Help.
	f.send(helpPkt(protocol.TagSeg(0, 1)))
	f.send(helpPkt(protocol.TagSeg(1, 1)))
	if p := f.recv(); !p.IsData() || p.Seg != protocol.TagSeg(1, 1) || !bitsEqual(p.Data, seg(grad, 1)) {
		t.Fatalf("Help answer = %+v, want this round's segment 1", p)
	}
	f.send(dataPkt(protocol.TagSeg(1, 0), seg(want, 0)))
	f.send(dataPkt(protocol.TagSeg(1, 1), seg(want, 1)))
	// A stale-tag broadcast of the withheld segment, carrying garbage: a
	// client that took it would complete the round without a Help.
	garbage := make([]float32, len(seg(want, 2)))
	for i := range garbage {
		garbage[i] = 1e9
	}
	f.send(dataPkt(protocol.TagSeg(2, 2), garbage))

	// Segment 2 is withheld: after the timeout the client asks for it,
	// and sends nothing else.
	p := f.recv()
	if !p.IsControl() || p.Action != protocol.ActionHelp {
		t.Fatalf("after the stall the client sent %+v, want a Help", p)
	}
	if got, err := protocol.ParseHelp(p.Value); err != nil || got != protocol.TagSeg(1, 2) {
		t.Fatalf("Help names seg %#x (%v), want %#x", got, err, protocol.TagSeg(1, 2))
	}
	f.send(dataPkt(protocol.TagSeg(1, 2), seg(want, 2)))
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if !bitsEqual(res.sum, want) {
		t.Fatal("aggregate differs from the served sum")
	}
	f.quiet(50 * time.Millisecond)
}

// TestClientSetHAckValidation answers SetH with the 1-byte Ack datagram
// [ToSControl, ActionAck], which decodes with no Value: the client must
// report a rejection, not index the empty value. A packet that is not an
// Ack arriving first must be skipped, not fail the call.
func TestClientSetHAckValidation(t *testing.T) {
	f := newFakeSwitch(t)
	c, err := Dial(f.addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 2 * time.Second
	errc := make(chan error, 1)

	go func() { errc <- c.SetH(2) }()
	if p := f.recv(); p.Action != protocol.ActionSetH {
		t.Fatalf("client sent %+v, want SetH", p)
	}
	f.sendRaw([]byte{protocol.ToSControl, byte(protocol.ActionAck)})
	if err := <-errc; err == nil {
		t.Fatal("an Ack without a value was taken as success")
	}

	go func() { errc <- c.SetH(2) }()
	f.recv()
	f.send(dataPkt(0, []float32{1, 2, 3, 4}))
	f.send(protocol.NewControl(protocol.Addr{}, protocol.Addr{}, protocol.ActionAck, protocol.AckOK))
	if err := <-errc; err != nil {
		t.Fatalf("SetH after a leading data packet: %v", err)
	}
}

// TestJoinGuardKeepsRawFP32 joins two workers, then has one re-Join
// naming fp16. The UDP framing cannot carry fp16, so the switch must
// refuse the Join and keep aggregating raw float32 exactly.
func TestJoinGuardKeepsRawFP32(t *testing.T) {
	sw := startSwitch(t)
	const n = protocol.FloatsPerPacket + 3
	clients := make([]*Client, 2)
	for i := range clients {
		c, err := Dial(sw.Addr(), n)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Join(); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	sendControl(t, clients[0], protocol.ActionJoin, protocol.JoinValueScheme(n, protocol.CompFP16))
	ack, err := clients[0].recv()
	if err != nil || ack.Action != protocol.ActionAck || len(ack.Value) != 1 || ack.Value[0] != 0 {
		t.Fatalf("fp16 Join should be refused: %+v %v", ack, err)
	}
	if sw.Members() != 2 {
		t.Fatalf("members = %d", sw.Members())
	}

	grads := [2][]float32{make([]float32, n), make([]float32, n)}
	want := make([]float32, n)
	for i := 0; i < n; i++ {
		// Values fp16 cannot hold: any half-precision rounding shows.
		grads[0][i] = 1 + float32(i)/4096
		grads[1][i] = 0.1 * float32(i%7)
		want[i] = grads[0][i] + grads[1][i]
	}
	var wg sync.WaitGroup
	sums := make([][]float32, 2)
	errs := make([]error, 2)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			sums[i], errs[i] = c.Aggregate(grads[i])
		}(i, c)
	}
	wg.Wait()
	for i := range clients {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bitsEqual(sums[i], want) {
			t.Fatalf("worker %d: raw fp32 sum not exact after the refused Join", i)
		}
	}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
