package transport

import (
	"bytes"
	"math"
	"net/netip"
	"testing"
	"time"

	"iswitch/internal/protocol"
)

// seedFrames are datagrams of every kind the transport tests put on the
// wire: each control action (well-formed and not), full, short and
// round-tagged data, and the 1-byte Ack.
func seedFrames() [][]byte {
	ctl := func(a protocol.Action, v []byte) *protocol.Packet {
		return protocol.NewControl(protocol.Addr{}, protocol.Addr{}, a, v)
	}
	full := make([]float32, protocol.FloatsPerPacket)
	for i := range full {
		full[i] = float32(i) - 0.5
	}
	pkts := []*protocol.Packet{
		ctl(protocol.ActionJoin, protocol.JoinValue(10)),
		ctl(protocol.ActionJoin, protocol.JoinValueScheme(10, protocol.CompFP16)),
		ctl(protocol.ActionJoin, []byte{1, 2}),
		ctl(protocol.ActionLeave, nil),
		ctl(protocol.ActionReset, nil),
		ctl(protocol.ActionSetH, protocol.SetHValue(1)),
		ctl(protocol.ActionFBcast, nil),
		ctl(protocol.ActionHelp, protocol.HelpValue(protocol.TagSeg(1, 2))),
		ctl(protocol.ActionHalt, nil),
		ctl(protocol.ActionAck, protocol.AckOK),
		ctl(protocol.ActionAck, protocol.AckFail),
		ctl(protocol.ActionAck, nil),
		dataPkt(3, []float32{1.5, -2.5}),
		dataPkt(protocol.TagSeg(1, 0), full),
		dataPkt(protocol.TagSeg(1, 1), full[:17]),
		dataPkt(0, nil),
	}
	var out [][]byte
	for _, p := range pkts {
		b, err := Encode(p)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzDecode pins the datagram codec at the socket boundary: whatever
// decodes re-encodes byte-identically, and nothing panics.
func FuzzDecode(f *testing.F) {
	for _, b := range seedFrames() {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{protocol.ToSRegular, 1, 2})
	f.Fuzz(func(t *testing.T, datagram []byte) {
		pkt, err := Decode(protocol.Addr{}, protocol.Addr{}, datagram)
		if err != nil {
			return
		}
		again, err := Encode(pkt)
		if err != nil {
			t.Fatalf("decoded %x but cannot re-encode it: %v", datagram, err)
		}
		if !bytes.Equal(again, datagram) {
			t.Fatalf("round trip changed the datagram:\n in %x\nout %x", datagram, again)
		}
	})
}

// recorder is a switch-core driver that keeps each emission as the
// datagram the UDP driver would write, per destination, with no socket.
type recorder struct{ out map[protocol.Addr][][]byte }

func (r *recorder) Send(pkt *protocol.Packet) {
	b, err := Encode(pkt)
	if err == nil {
		r.out[pkt.Dst] = append(r.out[pkt.Dst], b)
	}
	pkt.Release()
}

func (r *recorder) SendParent(*protocol.Packet) { panic("a UDP switch has no parent") }

func (r *recorder) After(_ time.Duration, fn func()) { fn() }

// FuzzSwitchDatagram feeds arbitrary datagram sequences from two peers
// through the UDP adapter's decode and core path. Nothing may panic, and
// whatever state the sequence leaves behind, a clean two-worker round
// run afterwards — both Join, SetH 2, Reset, contribute — must sum
// bit-exactly at both workers.
//
// Script encoding: repeated [peer byte][length byte][datagram].
func FuzzSwitchDatagram(f *testing.F) {
	frames := seedFrames()
	var all []byte
	for i, b := range frames {
		rec := append([]byte{byte(i), byte(len(b))}, b...)
		if len(b) < 256 {
			f.Add(rec)
			all = append(all, rec...)
		}
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, script []byte) {
		self := protocol.AddrFrom(127, 0, 0, 1, 9990)
		peers := [2]netip.AddrPort{
			netip.MustParseAddrPort("127.0.0.1:40001"),
			netip.MustParseAddrPort("127.0.0.1:40002"),
		}
		rec := &recorder{out: map[protocol.Addr][][]byte{}}
		s := newSwitch(self, rec)
		scratch := new(protocol.Packet)
		for len(script) >= 2 {
			peer, n := peers[script[0]&1], int(script[1])
			script = script[2:]
			if n > len(script) {
				n = len(script)
			}
			s.handle(scratch, peer, script[:n])
			script = script[n:]
		}

		const n = 2*protocol.FloatsPerPacket + 17
		grads := [2][]float32{make([]float32, n), make([]float32, n)}
		for i := 0; i < n; i++ {
			grads[0][i] = 1 + float32(i)/4096
			grads[1][i] = float32(i%11) - 5.25
		}
		send := func(w int, p *protocol.Packet) {
			b, err := Encode(p)
			if err != nil {
				t.Fatal(err)
			}
			s.handle(scratch, peers[w], b)
		}
		ctl := func(a protocol.Action, v []byte) *protocol.Packet {
			return protocol.NewControl(protocol.Addr{}, protocol.Addr{}, a, v)
		}
		send(0, ctl(protocol.ActionJoin, protocol.JoinValue(n)))
		send(1, ctl(protocol.ActionJoin, protocol.JoinValue(n)))
		send(0, ctl(protocol.ActionSetH, protocol.SetHValue(2)))
		send(0, ctl(protocol.ActionReset, nil))
		clear(rec.out)
		const round = 9
		for seg := uint64(0); seg < 3; seg++ {
			for w := range grads {
				lo, hi := protocol.SegmentRange(n, seg)
				send(w, dataPkt(protocol.TagSeg(round, seg), grads[w][lo:hi]))
			}
		}
		for w, peer := range peers {
			src, _ := toAddr(peer)
			asm := protocol.NewAssembler(n)
			for _, b := range rec.out[src] {
				p, err := Decode(protocol.Addr{}, protocol.Addr{}, b)
				if err != nil || !p.IsData() || protocol.SegRound(p.Seg) != round {
					continue
				}
				p.Seg = protocol.SegIndex(p.Seg)
				if err := asm.Add(p); err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
			}
			if !asm.Complete() {
				t.Fatalf("worker %d: clean round incomplete, %d segments missing", w, asm.Remaining())
			}
			for i, v := range asm.Vector() {
				if want := grads[0][i] + grads[1][i]; math.Float32bits(v) != math.Float32bits(want) {
					t.Fatalf("worker %d elem %d: %v, want %v", w, i, v, want)
				}
			}
		}
	})
}
