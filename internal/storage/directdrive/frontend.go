package directdrive

import (
	"regexp"

	"atlahs/internal/goal"
	"atlahs/internal/trace/frontend"
	"atlahs/internal/trace/spc"
)

// spcLineRE matches one SPC CSV record: ASU,LBA,Size,Opcode,Timestamp.
var spcLineRE = regexp.MustCompile(`^\s*\d+\s*,\s*\d+\s*,\s*\d+\s*,\s*[RrWw]\s*,\s*\d+(\.\d+)?\s*$`)

func convert(b []byte, cfg any) (*goal.Schedule, error) {
	c, err := frontend.ConfigAs[Config]("spc", cfg)
	if err != nil {
		return nil, err
	}
	tr, err := spc.ParseBytes(b)
	if err != nil {
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
