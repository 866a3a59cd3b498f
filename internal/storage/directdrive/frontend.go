package directdrive

import (
	"regexp"

	"atlahs/internal/goal"
	"atlahs/internal/registry"
	"atlahs/internal/trace/frontend"
	"atlahs/internal/trace/spc"
)

// spcLineRE matches one SPC CSV record: ASU,LBA,Size,Opcode,Timestamp.
var spcLineRE = regexp.MustCompile(`^\s*\d+\s*,\s*\d+\s*,\s*\d+\s*,\s*[RrWw]\s*,\s*\d+(\.\d+)?\s*$`)

// kept is the process's stock of the traces convert parses into. A trace
// holds no pointer, Generate builds nothing that refers to it, and Parse
// writes every command it reads, so a trace is kept for the next
// conversion after an error too.
var kept registry.Stock[spc.Trace]

func convert(b []byte, cfg any) (*goal.Schedule, error) {
	c, err := frontend.ConfigAs[Config]("spc", cfg)
	if err != nil {
		return nil, err
	}
	tr := kept.Take()
	defer kept.Put(tr)
	if err := tr.Parse(b); err != nil {
		return nil, err
	}
	s, _, err := Generate(tr, c)
	return s, err
}

func init() {
	frontend.Register(frontend.Definition{
		Name:       "spc",
		Extensions: []string{".spc"},
		Sniff: func(prefix []byte) bool {
			return spcLineRE.Match(frontend.FirstLine(prefix, "#"))
		},
		Convert:   convert,
		NewConfig: func() any { return new(Config) },
	})
}
