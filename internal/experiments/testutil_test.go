package experiments

import "atlahs/internal/goal"

// mustScheduleForComputeTest builds one rank with calcs 5,5 on stream 0
// and 7 on stream 1.
func mustScheduleForComputeTest() *goal.Schedule {
	b := goal.NewBuilder(1)
	r := b.Rank(0)
	r.CalcOn(5, 0)
	r.CalcOn(5, 0)
	r.CalcOn(7, 1)
	return b.MustBuild()
}

// compute runs the named experiment alone, with the whole worker budget
// for its configuration points.
func compute(name string, mode Mode, workers int) (Report, error) {
	reps, err := Reports(mode, workers, []string{name})
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}
