package main

import (
	"hash/maphash"
	"sort"
	"time"
	"unsafe"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// durQuantile returns the q-quantile of ds in the given unit.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

// hashSeed is fixed for the process so hashes of aggregates computed by
// different workers compare equal exactly when the bits do.
var hashSeed = maphash.MakeSeed()

// hashFloats hashes the bit pattern of v.
func hashFloats(v []float32) uint64 {
	if len(v) == 0 {
		return 0
	}
	return maphash.Bytes(hashSeed, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v)))
}

// frac is num/den, or 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
