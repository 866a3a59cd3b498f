package goal

// Dependency arenas. A schedule's dependency tables keep their public
// [][]int32 shape (one list per op), but the inner lists are views into a
// single shared []int32 backing array per table — one allocation instead
// of one per op. On multi-million-op schedules this collapses millions of
// tiny GC-tracked objects into a handful, which is the difference between
// the collector dominating a run and not showing up in the profile at
// all. Empty lists stay nil so arena-backed tables are
// reflect.DeepEqual-compatible with tables built list-by-list.

// packDeps copies a per-op dependency table into views over one shared
// arena. The result aliases none of the input.
func packDeps(deps [][]int32) [][]int32 {
	if len(deps) == 0 {
		return make([][]int32, 0)
	}
	total := 0
	for _, d := range deps {
		total += len(d)
	}
	out := make([][]int32, len(deps))
	if total == 0 {
		return out
	}
	arena := make([]int32, 0, total)
	for i, d := range deps {
		if len(d) == 0 {
			continue
		}
		start := len(arena)
		arena = append(arena, d...)
		// Full slice expressions cap each view at its own length so a
		// caller's append cannot bleed into the next op's list.
		out[i] = arena[start:len(arena):len(arena)]
	}
	return out
}
