package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"iswitch/internal/protocol"
	"iswitch/internal/transport"
)

// udpWorkload is the real-UDP datapath: a transport.Switch on loopback
// with one reader goroutine and two transport.Clients in this process,
// one goroutine each, in a closed loop of Aggregate calls.
type udpWorkload struct {
	name    string
	rounds  int // iterations per repetition unless a round fails first
	floats  int
	timeout time.Duration // Client.Timeout: one lost datagram costs this
	want    []float32     // the exact sum, set by prepare
}

// udpDDPG aggregates the paper's DDPG model (39,380 floats, 108 frames
// per contribution) in raw fp32.
func udpDDPG() *udpWorkload {
	return &udpWorkload{name: "udp-ddpg", rounds: 400, floats: 39_380, timeout: 50 * time.Millisecond}
}

// callOutcome is one client's result for one iteration.
type callOutcome uint8

const (
	notRun    callOutcome = iota
	okCall                // completed with the exact sum
	wrongCall             // completed with a wrong aggregate
	errCall               // Aggregate returned an error
	aborted               // cut short because the peer's call failed
)

// exactSum is the fp32 sum of the two clients' gradients. Two-term fp32
// addition is commutative, so the switch must return exactly this.
func exactSum(grads [][]float32) []float32 {
	out := make([]float32, len(grads[0]))
	for i := range out {
		out[i] = grads[0][i] + grads[1][i]
	}
	return out
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

// rep runs one repetition of w.rounds iterations.
func (w *udpWorkload) rep(seed int64, tr *tracer, rp *runtimeProbe) (*repResult, error) {
	return w.repN(seed, w.rounds, tr, rp)
}

// retry runs one iteration on a fresh switch and clients: the round a
// failed repetition left undelivered.
func (w *udpWorkload) retry(seed int64) (*repResult, error) {
	return w.repN(seed, 1, newTracer(false), nil)
}

// repN starts a switch and two clients, runs up to rounds iterations,
// and tears everything down. A failed Aggregate (or Join) ends the
// repetition early and sets erred; the caller runs that round again on
// a fresh switch and clients.
func (w *udpWorkload) repN(seed int64, rounds int, tr *tracer, rp *runtimeProbe) (*repResult, error) {
	res := &repResult{}
	cpuStart := cpuNow()
	repSpan := tr.begin("bench.rep", 0, 0, noVirt)
	setupID := tr.begin("bench.setup", repSpan, 0, noVirt)

	sw, err := transport.ListenSwitch("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	var serving sync.WaitGroup
	serving.Add(1)
	go func() {
		defer serving.Done()
		_ = sw.Serve() // returns nil once Close is called
	}()
	defer func() {
		sw.Close()
		serving.Wait()
	}()

	grads := gradients(seed, 2, w.floats)
	clients := make([]*transport.Client, 2)
	for i := range clients {
		c, err := transport.Dial(sw.Addr(), w.floats)
		if err != nil {
			return nil, fmt.Errorf("%s: dial: %w", w.name, err)
		}
		defer c.Close()
		c.Timeout = w.timeout
		if err := c.Join(); err != nil {
			// A lost Join or Ack fails the attempt at the round about
			// to start; the caller retries it.
			res.erred = 1
			return res, nil
		}
		clients[i] = c
	}
	res.setupCPU = cpuNow() - cpuStart
	tr.end(setupID, noVirt)

	dataIn0, bcast0, ctrl0 := sw.Counters()
	rcv0, err := udpRcvbufErrors()
	if err != nil {
		return nil, err
	}
	lo0, err := loopbackTxBytes()
	if err != nil {
		return nil, err
	}
	var sched0 []uint64
	if rp != nil {
		sched0 = rp.schedCounts()
	}
	mem0 := readMem()
	runSpan := tr.begin("transport.run", repSpan, 0, noVirt)
	t0 := time.Now()

	outcomes := [2][]callOutcome{make([]callOutcome, rounds), make([]callOutcome, rounds)}
	durs, cpus := [2][]time.Duration{}, [2][]time.Duration{}
	checks := [2]time.Duration{}
	var stop atomic.Bool
	var abortOnce sync.Once
	abort := func() {
		abortOnce.Do(func() {
			stop.Store(true)
			for _, c := range clients {
				c.Close() // unblocks the peer's pending receive
			}
		})
	}
	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, g := clients[ci], grads[ci]
			for r := 0; r < rounds; r++ {
				id := tr.begin("transport.aggregate", runSpan, int64(r), noVirt)
				c0, cpu0 := time.Now(), cpuNow()
				out, err := c.Aggregate(g)
				d, cpu := time.Since(c0), cpuNow()-cpu0
				tr.end(id, noVirt)
				if err != nil {
					if stop.Load() {
						outcomes[ci][r] = aborted
					} else {
						outcomes[ci][r] = errCall
						abort()
					}
					return
				}
				durs[ci] = append(durs[ci], d)
				cpus[ci] = append(cpus[ci], cpu)
				if rp != nil && ci == 0 {
					rp.sampleHeap()
				}
				k0 := time.Now()
				kid := tr.begin("bench.check", runSpan, int64(r), noVirt)
				outcomes[ci][r] = okCall
				if !bitsEqual(out, w.want) {
					outcomes[ci][r] = wrongCall
				}
				tr.end(kid, noVirt)
				checks[ci] += time.Since(k0)
			}
		}(ci)
	}
	wg.Wait()
	res.runHost = time.Since(t0)
	res.mem = readMem().sub(mem0)
	tr.end(runSpan, noVirt)
	if rp != nil {
		rp.addSched(sched0)
	}

	dataIn1, bcast1, ctrl1 := sw.Counters()
	rcv1, err := udpRcvbufErrors()
	if err != nil {
		return nil, err
	}
	lo1, err := loopbackTxBytes()
	if err != nil {
		return nil, err
	}

	// An iteration is tried once either client ran it to an outcome of
	// its own. If either client erred, the attempt failed and the
	// caller retries the round; otherwise the round is delivered, and
	// it failed if either client got a wrong sum.
	for r := 0; r < rounds; r++ {
		a, b := outcomes[0][r], outcomes[1][r]
		switch {
		case (a == notRun || a == aborted) && (b == notRun || b == aborted):
			continue
		case a == errCall || b == errCall:
			res.erred++
			continue
		}
		res.attempted++
		if a == wrongCall || b == wrongCall {
			res.failed++
			res.wrong = true
		}
	}
	res.rounds = res.attempted + res.erred
	res.roundsHost = append(durs[0], durs[1]...)
	res.roundsCPU = append(cpus[0], cpus[1]...)
	res.check = checks[0] + checks[1]
	res.frames = (dataIn1 - dataIn0) + (bcast1 - bcast0)
	res.wireBytes = lo1 - lo0
	tr.end(repSpan, noVirt)
	if rp == nil || res.rounds == 0 {
		return res, nil
	}

	R := float64(res.rounds)
	res.layers = map[string]float64{
		"transport.data_in_per_round":       float64(dataIn1-dataIn0) / R,
		"transport.broadcasts_per_round":    float64(bcast1-bcast0) / R,
		"transport.control_in_per_round":    float64(ctrl1-ctrl0) / R,
		"transport.rcvbuf_errors_per_round": float64(rcv1-rcv0) / R,
		"transport.frames_per_s":            frac(float64(res.frames), res.runHost.Seconds()),
	}
	if err := timeCodecs(res.layers, tr, repSpan, int64(res.rounds), grads[0], protocol.FloatsPerPacket); err != nil {
		return nil, err
	}
	return res, nil
}
