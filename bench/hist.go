package main

import "math/bits"

// hist is a log-linear histogram of nanosecond durations. Values below
// 2^subBits land in exact buckets; larger ones in one of 2^subBits buckets
// per power of two, so a bucket is under 1% of its value wide. Quantiles
// interpolate linearly inside the bucket that holds the requested rank, so
// they move continuously with the data instead of snapping to bucket edges.
// A hist is owned by one goroutine; merge copies are combined afterwards.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	subBits     = 7
	subCount    = 1 << subBits
	histBuckets = (64 - subBits + 1) * subCount
)

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - subBits
	return (shift+1)*subCount + int(v>>uint(shift)) - subCount
}

// bucketRange returns bucket i's lower bound and width.
func bucketRange(i int) (lo, width float64) {
	if i < subCount {
		return float64(i), 1
	}
	shift := i/subCount - 1
	mant := uint64(i%subCount + subCount)
	return float64(mant << uint(shift)), float64(uint64(1) << uint(shift))
}

// quantile returns the q-quantile (0 < q < 1) in nanoseconds, or 0 for an
// empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := bucketRange(i)
			return lo + w*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(histBuckets - 1)
	return lo + w
}
