package a

import "sort"

// sums accumulates floats in map order: the canonical violation, since
// float addition is not associative and map order is randomized.
func sums(m map[string]float64) float64 {
	var s float64
	for _, v := range m { // want "range over map m"
		s += v
	}
	return s // want "tainted by map iteration order"
}

// sorted is the sanctioned rewrite: collect keys (annotated — appends
// are order-sensitive but the slice is sorted before use), then iterate
// the sorted slice.
func sorted(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	//physdes:orderinsensitive pure key collection; sorted before any use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var s float64
	for _, k := range keys { // slice range: no diagnostic
		s += m[k]
	}
	return s
}

// sameLine exercises the same-line annotation form.
func sameLine(m map[int]int) {
	for k := range m { //physdes:orderinsensitive deleting every key
		delete(m, k)
	}
}

// missingReason: an annotation with no justification is itself an error.
func missingReason(m map[int]int) {
	//physdes:orderinsensitive
	for range m { // want "needs a justification"
	}
}

// wrongMarker: a typo'd marker must not suppress.
func wrongMarker(m map[int]int) {
	//physdes:orderinsensitivex not actually the marker
	for range m { // want "range over map m"
	}
}

// namedMapType: the check sees through named types to the map underneath.
type counts map[string]int

func namedMapType(c counts) int {
	n := 0
	for range c { // want "range over map c"
		n++
	}
	return n
}

// channels and slices never trigger.
func okRanges(ch chan int, xs []int) int {
	n := 0
	for range ch {
		n++
	}
	for _, x := range xs {
		n += x
	}
	return n
}
