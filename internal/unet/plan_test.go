package unet

import (
	"strings"
	"testing"
)

// The graph order as recorded from the commit before the plan existed
// (hand-unrolled enc/bottleneck/dec loops): calibration stages in
// execution order; each stage, then the head, owns a weight and a bias.
const (
	fastStages = "enc0.conv1 enc0.conv2 enc1.conv1 enc1.conv2 enc2.conv1 enc2.conv2 " +
		"bottleneck.conv1 bottleneck.conv2 " +
		"up2 dec2.conv1 dec2.conv2 up1 dec1.conv1 dec1.conv2 up0 dec0.conv1 dec0.conv2"
	paperStages = "enc0.conv1 enc0.conv2 enc1.conv1 enc1.conv2 enc2.conv1 enc2.conv2 enc3.conv1 enc3.conv2 enc4.conv1 enc4.conv2 " +
		"bottleneck.conv1 bottleneck.conv2 " +
		"up4 dec4.conv1 dec4.conv2 up3 dec3.conv1 dec3.conv2 up2 dec2.conv1 dec2.conv2 " +
		"up1 dec1.conv1 dec1.conv2 up0 dec0.conv1 dec0.conv2"
	fastParams = "enc0.conv1.weight enc0.conv1.bias enc0.conv2.weight enc0.conv2.bias " +
		"enc1.conv1.weight enc1.conv1.bias enc1.conv2.weight enc1.conv2.bias " +
		"enc2.conv1.weight enc2.conv1.bias enc2.conv2.weight enc2.conv2.bias " +
		"bottleneck.conv1.weight bottleneck.conv1.bias bottleneck.conv2.weight bottleneck.conv2.bias " +
		"up2.weight up2.bias dec2.conv1.weight dec2.conv1.bias dec2.conv2.weight dec2.conv2.bias " +
		"up1.weight up1.bias dec1.conv1.weight dec1.conv1.bias dec1.conv2.weight dec1.conv2.bias " +
		"up0.weight up0.bias dec0.conv1.weight dec0.conv1.bias dec0.conv2.weight dec0.conv2.bias " +
		"final.weight final.bias"
	paperParams = "enc0.conv1.weight enc0.conv1.bias enc0.conv2.weight enc0.conv2.bias " +
		"enc1.conv1.weight enc1.conv1.bias enc1.conv2.weight enc1.conv2.bias " +
		"enc2.conv1.weight enc2.conv1.bias enc2.conv2.weight enc2.conv2.bias " +
		"enc3.conv1.weight enc3.conv1.bias enc3.conv2.weight enc3.conv2.bias " +
		"enc4.conv1.weight enc4.conv1.bias enc4.conv2.weight enc4.conv2.bias " +
		"bottleneck.conv1.weight bottleneck.conv1.bias bottleneck.conv2.weight bottleneck.conv2.bias " +
		"up4.weight up4.bias dec4.conv1.weight dec4.conv1.bias dec4.conv2.weight dec4.conv2.bias " +
		"up3.weight up3.bias dec3.conv1.weight dec3.conv1.bias dec3.conv2.weight dec3.conv2.bias " +
		"up2.weight up2.bias dec2.conv1.weight dec2.conv1.bias dec2.conv2.weight dec2.conv2.bias " +
		"up1.weight up1.bias dec1.conv1.weight dec1.conv1.bias dec1.conv2.weight dec1.conv2.bias " +
		"up0.weight up0.bias dec0.conv1.weight dec0.conv1.bias dec0.conv2.weight dec0.conv2.bias " +
		"final.weight final.bias"
)

// TestPlanMatchesParent pins what a refactor of the model must not move:
// parameter order (= He-init draw order = checkpoint and flattened-
// gradient order) and calibration-stage order, both as literals recorded
// from the pre-plan code, the conv-layer count, and the plan's own
// well-formedness.
func TestPlanMatchesParent(t *testing.T) {
	for _, tc := range []struct {
		name           string
		cfg            Config
		stages, params string
	}{
		{"fast", FastConfig(1), fastStages, fastParams},
		{"paper", PaperConfig(1), paperStages, paperParams},
	} {
		if got := strings.Join(RequiredStages(tc.cfg), " "); got != tc.stages {
			t.Errorf("%s: stages\n got %s\nwant %s", tc.name, got, tc.stages)
		}
		cfg := tc.cfg
		cfg.BaseChannels = 1 // names do not depend on width; keep PaperConfig cheap
		m, err := New[float64](cfg)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, p := range m.Params() {
			names = append(names, p.Name)
		}
		if got := strings.Join(names, " "); got != tc.params {
			t.Errorf("%s: params\n got %s\nwant %s", tc.name, got, tc.params)
		}
	}

	for depth := 1; depth <= 5; depth++ {
		cfg := Config{Depth: depth, BaseChannels: 2, InChannels: 3, Classes: 3}
		plan := cfg.plan()
		convs := 0
		for i, st := range plan {
			if st.op != opPool {
				convs++
			}
			if st.in >= i || st.skip >= i {
				t.Fatalf("depth %d: step %d (%s) reads a later step (in %d, skip %d)", depth, i, st.name, st.in, st.skip)
			}
			inC := cfg.InChannels
			if st.in >= 0 {
				inC = plan[st.in].outC
			}
			if st.skip >= 0 {
				inC += plan[st.skip].outC
				if plan[st.skip].shift != st.shift {
					t.Errorf("depth %d: step %s joins planes of shift %d and %d", depth, st.name, plan[st.skip].shift, st.shift)
				}
			}
			if st.inC != inC {
				t.Errorf("depth %d: step %s declares %d input channels, its sources produce %d", depth, st.name, st.inC, inC)
			}
		}
		if want := 5*depth + 3; convs != want || cfg.NumConvLayers() != want {
			t.Errorf("depth %d: plan has %d conv layers, config says %d, want %d", depth, convs, cfg.NumConvLayers(), want)
		}
		if last := plan[len(plan)-1]; last.op != opHead || last.shift != 0 || last.outC != cfg.Classes {
			t.Errorf("depth %d: plan ends in %+v, want the full-resolution head", depth, last)
		}
	}
}
