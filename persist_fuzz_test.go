package flashr

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeMatrixMeta hammers the sidecar parser with arbitrary bytes: it
// must reject malformed input with an error — never panic, never accept a
// sidecar whose fields could drive the open path out of bounds, and never
// accept a block-format sidecar (Blocks != 0) of an older build.
func FuzzDecodeMatrixMeta(f *testing.F) {
	for _, meta := range []matrixMeta{
		{NRow: 2000, NCol: 5, PartRows: 256, DType: "double", Version: metaVersion,
			Checksums: map[string][]uint32{"m": {1, 2, 3}}},
		{NRow: 600, NCol: 40, PartRows: 256, Blocks: 2, DType: "double", Version: 1},
		{NRow: 0, NCol: 1, PartRows: 1, DType: "integer", Version: 2},
	} {
		raw, err := json.Marshal(meta)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"nrow":-1}`))
	f.Add([]byte(`{"version":99,"ncol":1,"part_rows":1}`))
	f.Add([]byte(`{"ncol":40,"part_rows":256,"blocks":7}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		meta, err := decodeMatrixMeta("fz", raw)
		if err != nil {
			return
		}
		if meta.Version > metaVersion {
			t.Fatalf("accepted future version %d", meta.Version)
		}
		if meta.NRow < 0 || meta.NCol <= 0 || meta.PartRows <= 0 {
			t.Fatalf("accepted impossible shape: %+v", meta)
		}
		if meta.Blocks != 0 {
			t.Fatalf("accepted a block-format sidecar: %+v", meta)
		}
	})
}
