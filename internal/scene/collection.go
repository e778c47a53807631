package scene

import (
	"fmt"

	"seaice/internal/noise"
)

// CollectionConfig describes a multi-scene acquisition campaign — the
// analogue of the paper's 66 large Ross Sea scenes with a natural mix of
// clear, lightly clouded, and heavily clouded conditions.
type CollectionConfig struct {
	Scenes int
	W, H   int
	Seed   uint64

	// ClearFraction of scenes get no atmosphere at all; the rest draw a
	// cloud bias uniformly from [HeavyBias, LightBias] (lower bias ⇒
	// more cloud).
	ClearFraction        float64
	LightBias, HeavyBias float64
}

// DefaultCollection mirrors the paper's campaign at experiment scale:
// 66 scenes of 512² (so 66×64 = 4224 tiles of 64², preserving the paper's
// tile count).
func DefaultCollection(seed uint64) CollectionConfig {
	return CollectionConfig{
		Scenes:        66,
		W:             512,
		H:             512,
		Seed:          seed,
		ClearFraction: 0.35,
		LightBias:     0.72,
		HeavyBias:     0.42,
	}
}

// GenerateCollection renders all scenes of a campaign. Scene i is fully
// determined by (cfg.Seed, i).
func GenerateCollection(cfg CollectionConfig) ([]*Scene, error) {
	if cfg.Scenes <= 0 {
		return nil, fmt.Errorf("scene: collection needs at least one scene, got %d", cfg.Scenes)
	}
	if cfg.HeavyBias > cfg.LightBias {
		return nil, fmt.Errorf("scene: HeavyBias %.2f must not exceed LightBias %.2f", cfg.HeavyBias, cfg.LightBias)
	}
	out := make([]*Scene, 0, cfg.Scenes)
	for i := 0; i < cfg.Scenes; i++ {
		sc, err := GenerateAt(cfg, i)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// GenerateAt renders scene index i of a campaign without materializing the
// others; used by the parallel loaders. It enforces the same campaign
// validation as GenerateCollection, so the streaming and batch paths
// reject identical inputs.
func GenerateAt(cfg CollectionConfig, i int) (*Scene, error) {
	if i < 0 || i >= cfg.Scenes {
		return nil, fmt.Errorf("scene: index %d outside campaign of %d scenes", i, cfg.Scenes)
	}
	if cfg.HeavyBias > cfg.LightBias {
		return nil, fmt.Errorf("scene: HeavyBias %.2f must not exceed LightBias %.2f", cfg.HeavyBias, cfg.LightBias)
	}
	rng := noise.NewRNG(cfg.Seed, uint64(i)+1)
	sceneSeed := rng.Uint64()

	sc := DefaultConfig(sceneSeed)
	sc.W, sc.H = cfg.W, cfg.H

	// Vary the ice regime a little from scene to scene so the dataset
	// covers open pack, consolidated ice, and marginal zones.
	sc.ThickThreshold = 0.52 + float64(0.12*rng.Float64())
	sc.ThinThreshold = sc.ThickThreshold - (0.12 + float64(0.1*rng.Float64()))

	if rng.Float64() < cfg.ClearFraction {
		sc.Clouds = ClearClouds()
	} else {
		cl := DefaultClouds()
		cl.Bias = cfg.HeavyBias + float64((cfg.LightBias-cfg.HeavyBias)*rng.Float64())
		cl.OffsetX = 64 + rng.Intn(96)
		cl.OffsetY = 40 + rng.Intn(72)
		sc.Clouds = cl
	}
	return Generate(sc)
}
