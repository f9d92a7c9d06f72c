package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"iswitch/internal/protocol"
	"iswitch/internal/tensor/kernels"
	"iswitch/internal/transport"
)

// envelope describes the environment a result was measured in. Two
// results are comparable only when their envelopes match: the SIMD
// backend and the CPU count both move host time.
func envelope() map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"goarch":     runtime.GOARCH,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"backend":    kernels.Backend(),
	}
}

// cpuNow reads the CPU time the process has used so far, user plus
// system, over all its threads. Unlike wall time it leaves out the time
// the hypervisor runs other guests on this VM's vCPUs (steal), which on
// a shared host varied from 5% to 31% between runs an hour apart.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the host-wide steal and total CPU ticks from the first
// line of /proc/stat.
func cpuTicks() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // user .. steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// memSnap is the part of runtime.MemStats the benchmark diffs.
type memSnap struct {
	mallocs, bytes, gcs, pauseNs uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
}

func (a memSnap) sub(b memSnap) memSnap {
	return memSnap{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcs - b.gcs, a.pauseNs - b.pauseNs}
}

func (a memSnap) add(b memSnap) memSnap {
	return memSnap{a.mallocs + b.mallocs, a.bytes + b.bytes, a.gcs + b.gcs, a.pauseNs + b.pauseNs}
}

// runtimeProbe samples the runtime/metrics the traced run reports:
// goroutine scheduling latency (the handoff behind every sim.Proc park
// and wake) and live heap.
type runtimeProbe struct {
	samples []metrics.Sample
	sched   []uint64 // accumulated scheduling-latency bucket counts
	buckets []float64
	heapMax uint64
}

const (
	schedMetric = "/sched/latencies:seconds"
	heapMetric  = "/memory/classes/heap/objects:bytes"
)

func newRuntimeProbe() *runtimeProbe {
	return &runtimeProbe{samples: []metrics.Sample{{Name: schedMetric}, {Name: heapMetric}}}
}

// schedCounts returns the current cumulative scheduling-latency counts.
func (r *runtimeProbe) schedCounts() []uint64 {
	metrics.Read(r.samples[:1])
	h := r.samples[0].Value.Float64Histogram()
	r.buckets = h.Buckets
	return append([]uint64(nil), h.Counts...)
}

// addSched accumulates the scheduling latencies observed since before.
func (r *runtimeProbe) addSched(before []uint64) {
	after := r.schedCounts()
	if r.sched == nil {
		r.sched = make([]uint64, len(after))
	}
	for i := range after {
		r.sched[i] += after[i] - before[i]
	}
}

// sampleHeap records the live heap, keeping the maximum.
func (r *runtimeProbe) sampleHeap() {
	metrics.Read(r.samples[1:])
	if v := r.samples[1].Value.Uint64(); v > r.heapMax {
		r.heapMax = v
	}
}

// schedQuantileUs returns the q-quantile of the accumulated scheduling
// latencies in µs, interpolating by rank within the bucket that holds it.
func (r *runtimeProbe) schedQuantileUs(q float64) float64 {
	var total uint64
	for _, c := range r.sched {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range r.sched {
		if cum+c >= want {
			lo, hi := r.buckets[i], r.buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				return hi * 1e6
			case math.IsInf(hi, 1):
				return lo * 1e6
			}
			return (lo + (hi-lo)*float64(want-cum)/float64(c)) * 1e6
		}
		cum += c
	}
	return 0
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	v, err := procField("/proc/self/status", "VmHWM:", 1)
	return v / 1024, err
}

// udpRcvbufErrors reads the namespace-wide UDP receive-buffer drop
// counter: datagrams the kernel discarded because a socket's receive
// queue was full.
func udpRcvbufErrors() (uint64, error) {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var header []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		for i, name := range header {
			if name == "RcvbufErrors" && i < len(fields) {
				return strconv.ParseUint(fields[i], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no Udp RcvbufErrors in /proc/net/snmp")
}

// loopbackTxBytes reads the bytes transmitted on the loopback device,
// IP and UDP headers included: every datagram between the UDP clients
// and the switch crosses it exactly once.
func loopbackTxBytes() (uint64, error) {
	f, err := os.Open("/proc/net/dev")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || strings.TrimSpace(name) != "lo" {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 9 {
			break
		}
		return strconv.ParseUint(fields[8], 10, 64)
	}
	return 0, fmt.Errorf("no lo line in /proc/net/dev")
}

// procField returns the idx-th whitespace field of the line starting
// with key in a /proc text file.
func procField(path, key string, idx int) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, key) {
			fields := strings.Fields(line)
			if idx < len(fields) {
				return strconv.ParseFloat(fields[idx], 64)
			}
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

// codecFrames is how many frames each codec stage times at least: a
// small gradient is run through the stage several times over.
const codecFrames = 4096

// timeCodecs calls the protocol, transport and fp16 kernels on grad the
// way one worker's upload and download would, timing each stage over
// every frame (repeated up to codecFrames), and records host ns per
// frame under the per-layer names in m. It runs between kernel runs, so
// nothing else allocates while segmentation's allocations are counted.
func timeCodecs(m map[string]float64, tr *tracer, parent, round int64, grad []float32, perPacket int) error {
	src, dst := protocol.AddrFrom(10, 0, 0, 2, 9000), protocol.AddrFrom(10, 0, 0, 1, 9000)
	nSeg := protocol.SegmentCountWith(len(grad), perPacket)
	passes := max(1, codecFrames/nSeg)
	perFrame := func(d time.Duration) float64 { return float64(d) / float64(passes*nSeg) }
	// timed runs fn passes times inside one span and returns the time.
	timed := func(name string, fn func() error) (time.Duration, error) {
		id := tr.begin(name, parent, round, noVirt)
		defer tr.end(id, noVirt)
		start := time.Now()
		for i := 0; i < passes; i++ {
			if err := fn(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		return time.Since(start), nil
	}

	var pkts []*protocol.Packet
	m0 := readMem()
	d, _ := timed("protocol.segment", func() error {
		pkts = protocol.SegmentWith(src, dst, grad, perPacket)
		return nil
	})
	m["protocol.segment_ns_per_frame"] = perFrame(d)
	m["protocol.segment_allocs_per_frame"] = float64(readMem().sub(m0).mallocs) / float64(passes*nSeg)

	asm := protocol.NewAssemblerWith(len(grad), perPacket)
	d, err := timed("protocol.assemble", func() error {
		asm.Reset()
		for _, p := range pkts {
			if err := asm.Add(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["protocol.assemble_ns_per_frame"] = perFrame(d)

	frames := make([][]byte, len(pkts))
	if d, err = timed("protocol.marshal", func() error {
		for i, p := range pkts {
			var err error
			if frames[i], err = protocol.Marshal(p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["protocol.marshal_ns_per_frame"] = perFrame(d)
	if d, err = timed("protocol.unmarshal", func() error {
		for _, f := range frames {
			if _, err := protocol.Unmarshal(f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["protocol.unmarshal_ns_per_frame"] = perFrame(d)

	if d, err = timed("transport.encode", func() error {
		for i, p := range pkts {
			var err error
			if frames[i], err = transport.Encode(p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["transport.encode_ns_per_frame"] = perFrame(d)
	if d, err = timed("transport.decode", func() error {
		for _, f := range frames {
			if _, err := transport.Decode(src, dst, f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["transport.decode_ns_per_frame"] = perFrame(d)

	packed := make([]byte, 2*len(grad))
	out := make([]float32, len(grad))
	d, _ = timed("kernels.f16_pack", func() error {
		for s, p := range pkts {
			lo, _ := protocol.SegmentRangeWith(len(grad), uint64(s), perPacket)
			kernels.F16AppendPack(packed[2*lo:2*lo], p.Data)
		}
		return nil
	})
	m["kernels.f16_pack_ns_per_frame"] = perFrame(d)
	d, _ = timed("kernels.f16_unpack", func() error {
		for s := range pkts {
			lo, hi := protocol.SegmentRangeWith(len(grad), uint64(s), perPacket)
			kernels.F16UnpackInto(out[lo:hi], packed[2*lo:2*hi])
		}
		return nil
	})
	m["kernels.f16_unpack_ns_per_frame"] = perFrame(d)
	return nil
}
