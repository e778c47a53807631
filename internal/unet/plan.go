package unet

import "fmt"

// op is the kind of one plan step.
type op uint8

const (
	opConv3 op = iota // 3×3 same-padded convolution + ReLU
	opPool            // 2×2 max-pool
	opUp              // 2×2 stride-2 up-convolution
	opHead            // final 1×1 convolution onto the class logits
)

// step is one node of the U-Net graph. name is the layer's name, the
// prefix of its parameter names ("enc0.conv1.weight") and — for the
// steps that have one — its calibration stage.
type step struct {
	op   op
	name string
	// in is the index of the step whose output this one reads, -1 for
	// the network input. skip, when ≥ 0, is a second source whose
	// channels come FIRST in the channel concatenation the step reads
	// (the encoder skip of a decoder block's first convolution).
	in, skip int
	// inC counts all input channels (both sources), outC the output's.
	inC, outC int
	// drop marks the dropout that follows this step's ReLU (between the
	// two convolutions of a block; training only).
	drop bool
	// shift is the output's down-sampling: its plane is (H>>shift, W>>shift).
	shift int
}

// plan lists the graph of §III-C / Fig 7 in execution order — the one
// statement of the architecture every walker reads (see the package
// comment). The order is parameter and checkpoint order, so it must not
// change: TestPlanMatchesParent pins it.
func (c Config) plan() []step {
	var p []step
	add := func(st step) int {
		p = append(p, st)
		return len(p) - 1
	}
	// block appends a double convolution reading in (and skip) and
	// returns the index of its second convolution.
	block := func(name string, in, skip, inC, outC, shift int) int {
		c1 := add(step{op: opConv3, name: name + ".conv1", in: in, skip: skip, inC: inC, outC: outC, drop: true, shift: shift})
		return add(step{op: opConv3, name: name + ".conv2", in: c1, skip: -1, inC: outC, outC: outC, shift: shift})
	}
	cur, inC, ch := -1, c.InChannels, c.BaseChannels
	skips := make([]int, c.Depth)
	for l := 0; l < c.Depth; l++ {
		skips[l] = block(fmt.Sprintf("enc%d", l), cur, -1, inC, ch, l)
		cur = add(step{op: opPool, name: fmt.Sprintf("pool%d", l), in: skips[l], skip: -1, inC: ch, outC: ch, shift: l + 1})
		inC, ch = ch, ch*2
	}
	cur = block("bottleneck", cur, -1, inC, ch, c.Depth)
	for l := c.Depth - 1; l >= 0; l-- {
		skipC := c.BaseChannels << l
		up := add(step{op: opUp, name: fmt.Sprintf("up%d", l), in: cur, skip: -1, inC: ch, outC: skipC, shift: l})
		cur = block(fmt.Sprintf("dec%d", l), up, skips[l], 2*skipC, skipC, l)
		ch = skipC
	}
	add(step{op: opHead, name: "final", in: cur, skip: -1, inC: c.BaseChannels, outC: c.Classes})
	return p
}

// RequiredStages lists the activation stages a quantized build of cfg
// needs calibrations for: every step whose output is requantized (the
// pools pass their input's quantization through, the head emits labels).
func RequiredStages(cfg Config) []string {
	var out []string
	for _, st := range cfg.plan() {
		if st.op == opConv3 || st.op == opUp {
			out = append(out, st.name)
		}
	}
	return out
}
