package kernels

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// f16TestVec mixes ordinary values with the specials the converter has
// explicit branches for.
func f16TestVec(rng *rand.Rand, n int) []float32 {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		65504, -65504, 1e6, float32(math.Ldexp(1, -24)), float32(math.Ldexp(1, -26)),
	}
	v := make([]float32, n)
	for i := range v {
		if rng.Intn(5) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = (rng.Float32()*2 - 1) * 100
		}
	}
	return v
}

func TestF16ExactValues(t *testing.T) {
	cases := []struct {
		f float32
		h uint16
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff},                 // max finite half
		{float32(math.Inf(1)), 0x7c00},  // +inf
		{float32(math.Inf(-1)), 0xfc00}, // -inf
	}
	for _, c := range cases {
		if got := F16FromF32(c.f); got != c.h {
			t.Errorf("F16FromF32(%v) = %#04x, want %#04x", c.f, got, c.h)
		}
		if got := F16ToF32(c.h); got != c.f {
			t.Errorf("F16ToF32(%#04x) = %v, want %v", c.h, got, c.f)
		}
	}
}

func TestF16OverflowToInf(t *testing.T) {
	if got := F16ToF32(F16FromF32(1e6)); !math.IsInf(float64(got), 1) {
		t.Fatalf("1e6 → %v, want +inf (beyond half range)", got)
	}
}

func TestF16NaNPreserved(t *testing.T) {
	got := F16ToF32(F16FromF32(float32(math.NaN())))
	if !math.IsNaN(float64(got)) {
		t.Fatalf("NaN → %v", got)
	}
}

func TestF16Subnormals(t *testing.T) {
	// Smallest positive half subnormal: 2^-24.
	tiny := float32(math.Ldexp(1, -24))
	h := F16FromF32(tiny)
	if h != 0x0001 {
		t.Fatalf("2^-24 → %#04x, want 0x0001", h)
	}
	if got := F16ToF32(h); got != tiny {
		t.Fatalf("round-trip 2^-24 = %v, want %v", got, tiny)
	}
	// Below half's range underflows to zero.
	if got := F16FromF32(float32(math.Ldexp(1, -26))); got != 0 {
		t.Fatalf("2^-26 → %#04x, want 0", got)
	}
}

// TestF16RoundTripExhaustive checks the full half-precision domain:
// every one of the 65536 bit patterns must survive F16ToF32 →
// F16FromF32 (NaN payloads excepted — they canonicalize to 0x7e00,
// which must then be a fixed point).
func TestF16RoundTripExhaustive(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		bits := uint16(h)
		f := F16ToF32(bits)
		back := F16FromF32(f)
		if exp, mant := bits>>10&0x1f, bits&0x3ff; exp == 0x1f && mant != 0 {
			want := bits&0x8000 | 0x7e00
			if back != want {
				t.Fatalf("NaN %#04x round-tripped to %#04x, want canonical %#04x", bits, back, want)
			}
			continue
		}
		if back != bits {
			t.Fatalf("%#04x (%v) round-tripped to %#04x", bits, f, back)
		}
	}
}

// Property: random half bit patterns survive the round trip through
// float32 (NaN payloads may normalize).
func TestF16HalfRoundTripQuick(t *testing.T) {
	f := func(h uint16) bool {
		if h>>10&0x1f == 0x1f && h&0x3ff != 0 {
			return true
		}
		return F16FromF32(F16ToF32(h)) == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestF16FromF32Reference checks rounding against an independent
// float64-based reference on random float32s: the nearest representable
// half (ties to even) measured in exact float64 arithmetic.
func TestF16FromF32Reference(t *testing.T) {
	refNearest := func(f float32) uint16 {
		f64 := float64(f)
		if math.IsNaN(f64) {
			return uint16(math.Float32bits(f)>>16)&0x8000 | 0x7e00
		}
		sign := uint16(0)
		if math.Signbit(f64) {
			sign = 0x8000
			f64 = -f64
		}
		best, bestErr := uint16(0), math.Inf(1)
		for h := uint16(0); h <= 0x7c00; h++ { // normals+subnormals+inf
			v := float64(F16ToF32(h))
			if h == 0x7c00 {
				// IEEE RNE rounds as if the exponent range were
				// unbounded, so infinity competes as the next grid
				// point (65536), not as an infinitely distant value.
				v = 65536
			}
			err := math.Abs(v - f64)
			if err < bestErr || (err == bestErr && h&1 == 0) {
				best, bestErr = h, err
			}
		}
		return sign | best
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 300; i++ {
		var f float32
		switch i % 4 {
		case 0:
			f = (rng.Float32() - 0.5) * 4 // normal half range
		case 1:
			f = (rng.Float32() - 0.5) * 1e-4 // subnormal halves
		case 2:
			f = (rng.Float32() - 0.5) * 1e6 // overflow to inf
		default:
			f = (rng.Float32() - 0.5) * 1e-9 // underflow to zero
		}
		if got, want := F16FromF32(f), refNearest(f); got != want {
			t.Fatalf("F16FromF32(%g) = %#04x, want %#04x (%v)", f, got, want, F16ToF32(want))
		}
	}
}

// Property: quantization error of in-range values is within half's
// relative precision (2^-11).
func TestF16QuantizationErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		f := (rng.Float32()*2 - 1) * 100
		q := F16ToF32(F16FromF32(f))
		if f == 0 {
			continue
		}
		rel := math.Abs(float64(q-f)) / math.Abs(float64(f))
		if rel > 1.0/2048+1e-7 {
			t.Fatalf("relative error %v for %v → %v", rel, f, q)
		}
	}
}

// TestF16AppendPackMatchesScalar pins the 4-wide word-assembly path
// against element-at-a-time F16FromF32 across lengths that cover the
// unrolled body, the tail, and both at once; unpacking and rounding in
// place must both reproduce the quantized source bit for bit.
func TestF16AppendPackMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 366, 1025} {
		src := f16TestVec(rng, n)
		got := F16AppendPack(nil, src)
		want := make([]byte, 0, 2*n)
		for _, f := range src {
			h := F16FromF32(f)
			want = append(want, byte(h), byte(h>>8))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: F16AppendPack diverges from scalar packing", n)
		}

		// NaN payloads normalize identically on every path.
		dst := make([]float32, n)
		F16UnpackInto(dst, got)
		rounded := append([]float32(nil), src...)
		F16RoundInPlace(rounded)
		for i := range src {
			want := F16ToF32(F16FromF32(src[i]))
			if math.Float32bits(dst[i]) != math.Float32bits(want) {
				t.Fatalf("n=%d elem %d: unpacked %v, want %v", n, i, dst[i], want)
			}
			if math.Float32bits(rounded[i]) != math.Float32bits(want) {
				t.Fatalf("n=%d elem %d: rounded %v, want %v", n, i, rounded[i], want)
			}
		}
	}
}

func TestF16PackUnpack(t *testing.T) {
	src := []float32{0, 1, -2.5, 0.333, 1000}
	buf := F16AppendPack(nil, src)
	if len(buf) != 2*len(src) {
		t.Fatalf("packed %d bytes", len(buf))
	}
	out := make([]float32, len(src))
	F16UnpackInto(out, buf)
	for i := range src {
		want := F16ToF32(F16FromF32(src[i]))
		if out[i] != want {
			t.Fatalf("elem %d: %v, want %v", i, out[i], want)
		}
	}
}

func TestF16QuantizeInPlace(t *testing.T) {
	v := []float32{0.1, 0.2, 0.3}
	F16RoundInPlace(v)
	for _, x := range v {
		if F16FromF32(x) != F16FromF32(F16ToF32(F16FromF32(x))) {
			t.Fatalf("not idempotent at %v", x)
		}
	}
}

func TestF16AppendPackAppends(t *testing.T) {
	prefix := []byte{0xde, 0xad}
	out := F16AppendPack(prefix, []float32{1, 2, 3})
	if len(out) != 2+6 || out[0] != 0xde || out[1] != 0xad {
		t.Fatalf("F16AppendPack clobbered prefix: % x", out)
	}
	if h := uint16(out[2]) | uint16(out[3])<<8; h != F16FromF32(1) {
		t.Fatalf("first packed half = %#04x", h)
	}
}

func TestF16AppendPackReusesCapacity(t *testing.T) {
	buf := make([]byte, 0, 2048)
	src := f16TestVec(rand.New(rand.NewSource(13)), 1024)
	out := F16AppendPack(buf, src)
	if &out[0] != &buf[:1][0] {
		t.Fatal("F16AppendPack reallocated despite sufficient capacity")
	}
	allocs := testing.AllocsPerRun(100, func() {
		out = F16AppendPack(buf[:0], src)
		F16UnpackInto(src, out)
	})
	if allocs != 0 {
		t.Fatalf("pack/unpack round trip allocates %v per run, want 0", allocs)
	}
}

func TestF16UnpackIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("F16UnpackInto length mismatch did not panic")
		}
	}()
	F16UnpackInto(make([]float32, 3), make([]byte, 8))
}

func BenchmarkF16AppendPack(b *testing.B) {
	src := f16TestVec(rand.New(rand.NewSource(17)), 4096)
	dst := make([]byte, 0, 2*len(src))
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = F16AppendPack(dst[:0], src)
	}
}

func BenchmarkF16UnpackInto(b *testing.B) {
	src := f16TestVec(rand.New(rand.NewSource(19)), 4096)
	wire := F16AppendPack(nil, src)
	dst := make([]float32, len(src))
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		F16UnpackInto(dst, wire)
	}
}

func BenchmarkF16RoundInPlace(b *testing.B) {
	src := f16TestVec(rand.New(rand.NewSource(23)), 4096)
	v := make([]float32, len(src))
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(v, src)
		F16RoundInPlace(v)
	}
}
