package core

import (
	"strings"
	"testing"

	"iswitch/internal/protocol"
)

// ClusterSpec.Validate must accept every supported compression×mode
// pairing and reject the rest with an error that names the scheme and
// explains the architectural reason.
func TestValidateCompressionMatrix(t *testing.T) {
	type modeCase struct {
		name   string
		mode   Mode
		shards int
	}
	allModes := []modeCase{{"isw", ModeISW, 0}, {"ps", ModePS, 0}, {"async-ps", ModeAsyncPS, 0},
		{"sharded-ps", ModePS, 2}, {"async-sharded-ps", ModeAsyncPS, 2}, {"allreduce", ModeAllReduce, 0}}

	okFor := map[protocol.Compression]map[string]bool{
		protocol.CompNone: {"isw": true, "ps": true, "async-ps": true,
			"sharded-ps": true, "async-sharded-ps": true, "allreduce": true},
		protocol.CompFP16:       {"isw": true, "ps": true, "async-ps": true},
		protocol.CompInt32Block: {"isw": true},
		protocol.CompTopK:       {"isw": true},
	}
	// The rejection message must carry the scheme name and a reason.
	reason := map[protocol.Compression]string{
		protocol.CompFP16:       "single aggregation point",
		protocol.CompInt32Block: "saturating adders",
		protocol.CompTopK:       "sparse scatter-add",
	}

	for _, scheme := range protocol.Compressions() {
		for _, mode := range allModes {
			t.Run(scheme.String()+"-"+mode.name, func(t *testing.T) {
				spec := ClusterSpec{Topology: TopoStar, Mode: mode.mode, Shards: mode.shards, Workers: 4,
					ModelFloats: 100, Compression: scheme}
				err := spec.Validate()
				if okFor[scheme][mode.name] {
					if err != nil {
						t.Fatalf("supported pairing rejected: %v", err)
					}
					return
				}
				if err == nil {
					t.Fatalf("unsupported pairing %v × %v accepted", scheme, mode)
				}
				if !strings.Contains(err.Error(), scheme.String()) {
					t.Fatalf("error does not name the scheme %q: %v", scheme, err)
				}
				if !strings.Contains(err.Error(), reason[scheme]) {
					t.Fatalf("error does not explain the restriction (%q): %v", reason[scheme], err)
				}
			})
		}
	}
}

// Unknown scheme bytes and top-k over a non-default segment grid are
// rejected with descriptive errors.
func TestValidateCompressionEdgeCases(t *testing.T) {
	t.Run("unknown-scheme", func(t *testing.T) {
		spec := ClusterSpec{Topology: TopoStar, Mode: ModeISW, Workers: 4,
			ModelFloats: 100, Compression: protocol.Compression(99)}
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), "unknown compression scheme") {
			t.Fatalf("want unknown-scheme error, got %v", err)
		}
	})
	t.Run("topk-nondefault-segment", func(t *testing.T) {
		cfg := DefaultISWConfig()
		cfg.FloatsPerPacket = 64
		spec := ClusterSpec{Topology: TopoStar, Mode: ModeISW, Workers: 4,
			ModelFloats: 100, Compression: protocol.CompTopK, ISW: &cfg}
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), "per-packet payload") {
			t.Fatalf("want per-packet payload error, got %v", err)
		}
	})
	t.Run("isw-config-scheme", func(t *testing.T) {
		// The scheme may come from the ISW config instead of the spec
		// field; the support matrix still applies.
		cfg := DefaultISWConfig()
		cfg.Compression = protocol.CompInt32Block
		spec := ClusterSpec{Topology: TopoStar, Mode: ModeISW, Workers: 4,
			ModelFloats: 100, ISW: &cfg}
		if err := spec.Validate(); err != nil {
			t.Fatalf("config-carried scheme rejected: %v", err)
		}
	})
}
