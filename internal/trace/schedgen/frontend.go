package schedgen

import (
	"bytes"

	"atlahs/internal/goal"
	"atlahs/internal/trace/frontend"
	"atlahs/internal/trace/mpitrace"
)

func convert(b []byte, cfg any) (*goal.Schedule, error) {
	opt, err := frontend.ConfigAs[Options]("mpi", cfg)
	if err != nil {
		return nil, err
	}
	tr, err := mpitrace.ParseBytes(b)
	if err != nil {
		return nil, err
	}
	return Generate(tr, opt)
}

func init() {
	frontend.Register(frontend.Definition{
		Name:       "mpi",
		Extensions: []string{".mpi"},
		Sniff: func(prefix []byte) bool {
			return bytes.HasPrefix(frontend.FirstLine(prefix, "#"), []byte("mpitrace "))
		},
		Convert:   convert,
		NewConfig: func() any { return new(Options) },
	})
}
