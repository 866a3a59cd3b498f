package ncclgoal

import (
	"bytes"

	"atlahs/internal/goal"
	"atlahs/internal/trace/frontend"
)

func convert(b []byte, cfg any) (*goal.Schedule, error) {
	c, err := frontend.ConfigAs[Config]("nsys", cfg)
	if err != nil {
		return nil, err
	}
	s := takeScratch()
	defer s.release()
	if err := s.rep.Parse(b); err != nil {
		return nil, err
	}
	return s.plan.generate(&s.rep, c)
}

func init() {
	frontend.Register(frontend.Definition{
		Name:       "nsys",
		Extensions: []string{".nsys"},
		Sniff: func(prefix []byte) bool {
			return bytes.HasPrefix(prefix, []byte(`{"format":"atlahs-nsys-v1"`))
		},
		Convert:   convert,
		NewConfig: func() any { return new(Config) },
	})
}
