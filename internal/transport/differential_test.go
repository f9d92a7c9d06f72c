package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
)

// diffStep is one packet a worker sends to the switch.
type diffStep struct {
	from int
	pkt  *protocol.Packet
}

// differentialScript exercises every control action and recovery path of
// the switch on a two-worker job with a three-segment model whose last
// segment is short. The Leave comes before SetH: a pinned H does not
// follow membership, so only under auto-H does a Leave drain a segment.
func differentialScript(n int) []diffStep {
	grad := func(w int, seg uint64) []float32 {
		lo, hi := protocol.SegmentRange(n, seg)
		out := make([]float32, hi-lo)
		for i := range out {
			out[i] = float32((w+1)*(lo+i)%97) - 48.5
		}
		return out
	}
	data := func(w int, round, seg uint64) diffStep {
		return diffStep{w, &protocol.Packet{ToS: protocol.ToSData,
			Seg: protocol.TagSeg(round, seg), Data: grad(w, seg)}}
	}
	ctl := func(w int, a protocol.Action, v []byte) diffStep {
		return diffStep{w, protocol.NewControl(protocol.Addr{}, protocol.Addr{}, a, v)}
	}
	join := protocol.JoinValue(uint64(n))
	return []diffStep{
		ctl(0, protocol.ActionJoin, join),
		ctl(1, protocol.ActionJoin, join),
		// Round 1: a full aggregation, one broadcast per segment.
		data(0, 1, 0), data(0, 1, 1), data(0, 1, 2),
		data(1, 1, 0), data(1, 1, 1), data(1, 1, 2),
		// Help for an emitted segment: re-served from the shadow slot.
		ctl(1, protocol.ActionHelp, protocol.HelpValue(protocol.TagSeg(1, 2))),
		// Help for a partial segment: relayed to the missing contributor.
		data(0, 2, 0),
		ctl(1, protocol.ActionHelp, protocol.HelpValue(protocol.TagSeg(2, 0))),
		// Leave lowers auto-H to 1 and drains the partial segment.
		ctl(1, protocol.ActionLeave, nil),
		ctl(1, protocol.ActionJoin, join),
		// SetH pins H; FBcast force-broadcasts a partial segment.
		ctl(0, protocol.ActionSetH, protocol.SetHValue(2)),
		data(0, 3, 2),
		ctl(1, protocol.ActionFBcast, nil),
		ctl(0, protocol.ActionHalt, nil),
		ctl(1, protocol.ActionJoin, []byte{1, 2}), // malformed
	}
}

// runScriptDES plays the script on a two-host simulated star, running
// the kernel to quiescence after each step. It returns, per step and
// per worker, the datagrams the worker received, encoded for UDP.
func runScriptDES(t *testing.T, script []diffStep) [][2][][]byte {
	k := sim.NewKernel()
	c := switchnet.BuildStar(k, 2, netsim.TenGbE())
	c.IS.SetDedup(true) // as the UDP switch runs
	out := make([][2][][]byte, len(script))
	for i, st := range script {
		pkt := *st.pkt
		pkt.Src, pkt.Dst = c.Workers[st.from].Addr, c.IS.Addr()
		c.Workers[st.from].Send(&pkt)
		k.Run()
		for w, h := range c.Workers {
			for {
				got, ok := h.RX.TryRecv()
				if !ok {
					break
				}
				b, err := Encode(got)
				if err != nil {
					t.Fatalf("step %d: worker %d received an unencodable %+v: %v", i, w, got, err)
				}
				got.Release()
				out[i][w] = append(out[i][w], b)
			}
		}
	}
	return out
}

// TestDifferentialDESvsUDP drives one packet script through the
// simulated switch (switchnet on a netsim star) and the real UDP switch
// on loopback: both must emit the same datagrams, in the same order, to
// each worker. They share the switch core, so any divergence is an
// adapter bug.
func TestDifferentialDESvsUDP(t *testing.T) {
	const n = 2*protocol.FloatsPerPacket + 17
	script := differentialScript(n)
	want := runScriptDES(t, script)
	// What each step must emit, per worker (w0|w1): Ack with its value,
	// Help/Halt, or data as D<round>.<segment>.
	pinned := []string{
		"Ack1|", "|Ack1",
		"|", "|", "|", "D1.0|D1.0", "D1.1|D1.1", "D1.2|D1.2",
		"|D1.2",
		"|", "|Help Ack1",
		"D2.0|Ack1", "|Ack1",
		"Ack1|", "|", "D3.2|D3.2 Ack1",
		"Halt|Halt",
		"|Ack0",
	}
	if len(pinned) != len(want) {
		t.Fatalf("%d pinned steps for a %d-step script", len(pinned), len(want))
	}
	for i := range want {
		if got := summarize(want[i]); got != pinned[i] {
			t.Fatalf("step %d: simulated switch emitted %q, want %q", i, got, pinned[i])
		}
	}

	sw := startSwitch(t)
	var conns [2]*net.UDPConn
	for w := range conns {
		ua, err := net.ResolveUDPAddr("udp", sw.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if conns[w], err = net.DialUDP("udp", nil, ua); err != nil {
			t.Fatal(err)
		}
		defer conns[w].Close()
	}
	buf := make([]byte, maxDatagram)
	read := func(w int, d time.Duration) ([]byte, error) {
		_ = conns[w].SetReadDeadline(time.Now().Add(d))
		n, err := conns[w].Read(buf)
		return append([]byte(nil), buf[:n]...), err
	}
	for i, st := range script {
		b, err := Encode(st.pkt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conns[st.from].Write(b); err != nil {
			t.Fatal(err)
		}
		for w := range conns {
			for j, exp := range want[i][w] {
				got, err := read(w, 2*time.Second)
				if err != nil {
					t.Fatalf("step %d: worker %d: datagram %d of %d: %v", i, w, j+1, len(want[i][w]), err)
				}
				if !bytes.Equal(got, exp) {
					t.Fatalf("step %d: worker %d datagram %d:\n UDP %x\n DES %x", i, w, j, head(got), head(exp))
				}
			}
			if got, err := read(w, 20*time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("step %d: worker %d: UDP emitted an extra datagram %x (%v)", i, w, head(got), err)
			}
		}
	}
}

// summarize renders one step's datagrams at both workers as w0|w1.
func summarize(step [2][][]byte) string {
	var parts [2]string
	for w, dgs := range step {
		var items []string
		for _, b := range dgs {
			p, err := Decode(protocol.Addr{}, protocol.Addr{}, b)
			switch {
			case err != nil:
				items = append(items, "?")
			case p.IsData():
				items = append(items, fmt.Sprintf("D%d.%d", protocol.SegRound(p.Seg), protocol.SegIndex(p.Seg)))
			case p.Action == protocol.ActionAck && len(p.Value) == 1:
				items = append(items, fmt.Sprintf("Ack%d", p.Value[0]))
			default:
				items = append(items, p.Action.String())
			}
		}
		parts[w] = strings.Join(items, " ")
	}
	return parts[0] + "|" + parts[1]
}

// head trims a datagram for failure messages.
func head(b []byte) []byte {
	if len(b) > 24 {
		return b[:24]
	}
	return b
}
