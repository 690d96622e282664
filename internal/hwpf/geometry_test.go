package hwpf

import (
	"fmt"
	"strings"
	"testing"
)

// TestTableGeometryPanics pins the table shapes the mask-indexed schemes
// reject at construction: entries that do not divide by ways, and a set
// count that is not a power of two (the set index masks the pc).
func TestTableGeometryPanics(t *testing.T) {
	ctors := map[string]func(Config){
		"rpt":          func(c Config) { New(c) },
		"baer-chen":    func(c Config) { NewBaerChen(c) },
		"multi-stride": func(c Config) { NewMultiStride(c) },
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"entries not divisible by ways", Config{Entries: 10, Ways: 4}, "divide by ways"},
		{"three sets", Config{Entries: 12, Ways: 4}, "not a power of two"},
		{"six sets", Config{Entries: 24, Ways: 4}, "not a power of two"},
	}
	for scheme, ctor := range ctors {
		for _, c := range cases {
			t.Run(scheme+"/"+c.name, func(t *testing.T) {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%+v: no panic", c.cfg)
					}
					if msg := fmt.Sprint(r); !strings.Contains(msg, c.want) {
						t.Fatalf("panic %q does not mention %q", msg, c.want)
					}
				}()
				ctor(c.cfg)
			})
		}
		// One set and the default 16 are powers of two and must build.
		ctor(Config{Entries: 4, Ways: 4})
		ctor(Config{})
	}
}
