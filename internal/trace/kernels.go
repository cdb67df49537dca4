// Inner-loop kernel of layer synthesis: the remainder top-k selection
// behind largest-remainder apportioning.
//
// apportionInto hands its k leftover units to the k largest fractional
// remainders under remCmp (fraction desc, index asc). That comparator is
// a strict total order (indices are unique), so the winning SET is unique
// and any selection of it gives the historical full sort's output bits;
// the increment loop is order-insensitive. selectTopRems finds it with a
// counting select: one bucket count, one partition pass and a sort of the
// single bucket the k-th entry falls in, with no comparisons elsewhere.
package trace

import (
	"cmp"
	"math/bits"
	"slices"
)

// remCmp is the apportion priority order: larger fraction first, index
// ascending as the deterministic tie-break. Strict total order because
// indices never repeat.
func remCmp(a, b remEntry) int {
	switch {
	case a.frac > b.frac:
		return -1
	case a.frac < b.frac:
		return 1
	}
	return cmp.Compare(a.idx, b.idx)
}

// remScratch is the working set of one largest-remainder rounding: the
// remainder entries and the counting select's bucket counts. apportionInto
// sizes it, so callers only hold one per concurrent rounding.
type remScratch struct {
	rems    []remEntry
	buckets []int32
}

// resize sizes the scratch for e entries: e remainder slots and the
// smallest power of two at least e buckets, so uniformly spread fractions
// land about one to a bucket.
func (sc *remScratch) resize(e int) {
	nb := 1 << bits.Len(uint(max(e, 1)-1))
	if cap(sc.rems) < e {
		sc.rems = make([]remEntry, e)
	}
	if cap(sc.buckets) < nb {
		sc.buckets = make([]int32, nb)
	}
	sc.rems = sc.rems[:e]
	sc.buckets = sc.buckets[:nb]
}

// remBucket maps a fraction to one of nb buckets, nb a power of two.
// frac*nb is exact, so the bucket is monotone in the fraction. A fraction
// outside [0, 1), which only a negative, huge or non-finite probability
// produces, clamps to an end bucket: the order stays monotone, and the
// threshold bucket's sort still ranks by the fraction itself. NaN lands in
// bucket 0.
func remBucket(frac float64, nb int) int {
	switch {
	case !(frac > 0):
		return 0
	case frac >= 1:
		return nb - 1
	}
	return int(frac * float64(nb))
}

// selectTopRems rearranges rems so rems[:k] holds the k highest-priority
// entries under remCmp (0 < k < len(rems)); buckets must hold the entries'
// remBucket counts. Every entry above the bucket the k-th entry falls in
// wins; that threshold bucket is sorted in place under remCmp and its
// first entries fill the rest. Deterministic and allocation-free.
func selectTopRems(rems []remEntry, k int, buckets []int32) {
	nb := len(buckets)
	above, t := 0, nb-1
	for above+int(buckets[t]) < k {
		above += int(buckets[t])
		t--
	}
	// Three-way partition by bucket: rems[:hi] above t, rems[hi:mid] in
	// t, rems[mid:i] below t.
	hi, mid := 0, 0
	for i := range rems {
		b := remBucket(rems[i].frac, nb)
		if b < t {
			continue
		}
		e := rems[i]
		rems[i] = rems[mid]
		if b > t {
			rems[mid] = rems[hi]
			rems[hi] = e
			hi++
		} else {
			rems[mid] = e
		}
		mid++
	}
	if k < mid {
		slices.SortFunc(rems[hi:mid], remCmp)
	}
}
