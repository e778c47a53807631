package chaos

import (
	"strings"
	"testing"
)

// FuzzChaosParse: the -chaos flag's parser never panics, and a schedule
// it accepts is one the CLIs can arm — at least one fault, no negative
// step or delay, and New resolves every rank-targeted fault to a rank of
// the domain. A Schedule has no string form to re-parse, so there is no
// round-trip property.
func FuzzChaosParse(f *testing.F) {
	for _, seed := range []string{
		// README / ARCHITECTURE / CI / cluster_smoke.sh specs.
		"7:crash@1:r0", "7:crash@1:r1", "7:crash@3:r1,crash@9", "7:kill@40", "11:slownode@0:200ms",
		"9:serve@1", "21:part@2:r1", "51:bitflip@3:r1,nanstep@4:r0",
		"7:crash@3:r1,stall@5:r2:50ms,crash@9,kill@12,stage@2,serve@4",
		"3:slow@1:r0:5ms,drop@2,reconn@3:r1,burst@0:1s,badscene@2,torn@4",
		// Rejected shapes.
		"", " ", "7", "7:", "x:crash@1", "7:crash", "7:crash@-1", "7:crash@1:r-1", "7:kill@1:r0",
		"7:crash@1:5ms", "7:stall@1:-5ms", "7:boom@1", "7:crash@1:", "18446744073709551616:crash@1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		if s == nil {
			if strings.TrimSpace(spec) != "" {
				t.Fatalf("Parse(%q) disabled chaos for a non-blank spec", spec)
			}
			return
		}
		if len(s.Faults) == 0 {
			t.Fatalf("Parse(%q) accepted a schedule without faults", spec)
		}
		const ranks = 3
		for _, ft := range New(s, ranks).Pending() {
			if ft.Step < 0 || ft.Delay < 0 || ft.Target < -1 {
				t.Fatalf("Parse(%q) yields %+v", spec, ft)
			}
			if rankTargeted(ft.Kind) && ft.Target < 0 {
				t.Fatalf("Parse(%q): New left %+v without a victim rank", spec, ft)
			}
		}
	})
}
