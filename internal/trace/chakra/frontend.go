package chakra

import (
	"bytes"

	"atlahs/internal/goal"
	"atlahs/internal/trace/frontend"
)

func init() {
	frontend.Register(frontend.Definition{
		Name:       "chakra",
		Extensions: []string{".chakra", ".et"},
		Sniff: func(prefix []byte) bool {
			return bytes.HasPrefix(prefix, []byte(`{"format":"`+formatName+`"`))
		},
		Convert: func(b []byte, cfg any) (*goal.Schedule, error) {
			c, err := frontend.ConfigAs[ConvertConfig]("chakra", cfg)
			if err != nil {
				return nil, err
			}
			t, err := ParseBytes(b)
			if err != nil {
				return nil, err
			}
			return ToGOAL(t, c)
		},
		NewConfig: func() any { return new(ConvertConfig) },
	})
}
