package cliflags

import (
	"fmt"
	"testing"
)

func TestParseTopology(t *testing.T) {
	cases := []struct {
		in   string
		want Topology
		ok   bool
	}{
		{"", Topology{Kind: "mot"}, true},
		{"mot", Topology{Kind: "mot"}, true},
		{"mesh:4x4", Topology{Kind: "mesh", W: 4, H: 4}, true},
		{"chiplet:2x3", Topology{Kind: "chiplet", W: 2, H: 3}, true},
		{"chiplet:8x1", Topology{Kind: "chiplet", W: 8, H: 1}, true},
		{"bogus", Topology{}, false},
		{"mot:4x4", Topology{}, false},
		{"mesh", Topology{}, false},
		{"mesh:", Topology{}, false},
		{"mesh:4", Topology{}, false},
		{"mesh:4x", Topology{}, false},
		{"mesh:x4", Topology{}, false},
		{"mesh:0x4", Topology{}, false},
		{"mesh:4x0", Topology{}, false},
		{"mesh:-4x4", Topology{}, false},
		{"mesh:4x4junk", Topology{}, false},
		{"mesh:4x4x9", Topology{}, false},
		{"chiplet:2x2,3", Topology{}, false},
		{"mesh:+4x4", Topology{}, false},
		{"mesh:4x+4", Topology{}, false},
		{"mesh: 4x4", Topology{}, false},
		{"mesh:4x4 ", Topology{}, false},
		{"mesh:4X4", Topology{}, false},
		{"mesh:99999999999999999999x4", Topology{}, false},
	}
	for _, c := range cases {
		got, err := ParseTopology(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseTopology(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if got != c.want {
			t.Errorf("ParseTopology(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// FuzzParseTopology: the parser never panics, and every accepted value
// formats back to kind:WxH (or mot) and parses to the same selection.
func FuzzParseTopology(f *testing.F) {
	for _, s := range []string{"mot", "mesh:4x4", "chiplet:2x2", "mesh:4x4junk", "chiplet:2x2,3", "mesh:+4x4", "mesh:4x4x9", "mesh:007x1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseTopology(s)
		if err != nil {
			return
		}
		canon := "mot"
		switch got.Kind {
		case "mot":
			if got.W != 0 || got.H != 0 {
				t.Fatalf("ParseTopology(%q) = %+v: mot carries dimensions", s, got)
			}
		case "mesh", "chiplet":
			if got.W < 1 || got.H < 1 {
				t.Fatalf("ParseTopology(%q) = %+v: dimension below 1", s, got)
			}
			canon = fmt.Sprintf("%s:%dx%d", got.Kind, got.W, got.H)
		default:
			t.Fatalf("ParseTopology(%q) = %+v: unknown kind", s, got)
		}
		again, err := ParseTopology(canon)
		if err != nil || again != got {
			t.Fatalf("ParseTopology(%q) = %+v, but its form %q parses to %+v, %v", s, got, canon, again, err)
		}
	})
}
