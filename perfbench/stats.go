package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

var posInf = math.Inf(1)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). +Inf entries stand for failed
// requests, which miss every latency limit. Empty input reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(xs[hi], 1) {
		return xs[hi]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// blockQuantile returns the median over whole blocks of block
// consecutive values of xs of each block's q-quantile, and the number of
// blocks; with less than one whole block, it is the q-quantile of all of
// xs. xs is left as it was.
func blockQuantile(xs []float64, block int, q float64) (float64, int) {
	if len(xs) < block {
		block = len(xs)
	}
	var qs []float64
	for b := 0; b+block <= len(xs) && block > 0; b += block {
		qs = append(qs, quantile(append([]float64(nil), xs[b:b+block]...), q))
	}
	return median(qs), len(qs)
}

// tailCount is the number of samples beyond the q-quantile, the figure
// a reader needs to judge whether that percentile is supported.
func tailCount(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}
