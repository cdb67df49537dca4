// Inner-loop kernel of layer synthesis: the remainder top-k selection
// behind largest-remainder apportioning.
//
// apportionInto historically sorted all E remainder entries to pick the k
// largest — O(E log E) with E=16384 at the scale shapes. selectTopRems
// replaces the sort with a deterministic quickselect: the comparator
// (fraction desc, index asc) is a strict total order (indices are unique),
// so the selected top-k SET is unique and the routing output is
// bit-identical to the sorted implementation — only the order inside the
// selected prefix differs, and the increment loop is order-insensitive.
package trace

// remLess is the apportion priority order: larger fraction first, index
// ascending as the deterministic tie-break. Strict total order because
// indices never repeat.
func remLess(a, b remEntry) bool {
	if a.frac != b.frac {
		return a.frac > b.frac
	}
	return a.idx < b.idx
}

// selectTopRems partitions rems so rems[:k] holds the k highest-priority
// entries under remLess (in unspecified order). Deterministic: the pivot is
// the median-of-three of the first, middle and last entries, with no
// randomness, so repeated runs walk identical state.
func selectTopRems(rems []remEntry, k int) {
	lo, hi := 0, len(rems)
	for hi-lo > 1 {
		if k <= lo || k >= hi {
			return
		}
		// Median-of-three pivot, moved to lo.
		mid := lo + (hi-lo)/2
		if remLess(rems[mid], rems[lo]) {
			rems[mid], rems[lo] = rems[lo], rems[mid]
		}
		if remLess(rems[hi-1], rems[mid]) {
			rems[hi-1], rems[mid] = rems[mid], rems[hi-1]
			if remLess(rems[mid], rems[lo]) {
				rems[mid], rems[lo] = rems[lo], rems[mid]
			}
		}
		// Pivot moves to lo before partitioning: with rems[lo] == pivot the
		// i-scan stops at lo immediately, which bounds the Hoare partition
		// point at hi-2 and guarantees both narrowing branches make progress.
		rems[lo], rems[mid] = rems[mid], rems[lo]
		pivot := rems[lo]
		// Hoare partition around pivot.
		i, j := lo-1, hi
		for {
			for {
				i++
				if !remLess(rems[i], pivot) {
					break
				}
			}
			for {
				j--
				if !remLess(pivot, rems[j]) {
					break
				}
			}
			if i >= j {
				break
			}
			rems[i], rems[j] = rems[j], rems[i]
		}
		// rems[lo:j+1] all precede-or-equal the pivot's position; recurse
		// into whichever side still straddles k.
		if k <= j {
			hi = j + 1
		} else {
			lo = j + 1
		}
	}
}
