package workload_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"reno/internal/isa"
	"reno/internal/sweep"
	"reno/internal/workload"
)

// codeDigests pins, per profile, an FNV-64a digest of the encoded code of
// the program built at sweep seed offsets 0..3. Any change to the
// generator, the assembler or the instruction encoding that alters a
// single bit of a workload's binary image shows up here.
var codeDigests = map[string]uint64{
	"bzip2":    0x4d5c75629e95185a,
	"crafty":   0x0380dc3284f33ac5,
	"eon.c":    0xc86e416c5e16ae1b,
	"eon.k":    0xecdd0af9f9c3f0de,
	"eon.r":    0x8dfdf6c45ee0e9c1,
	"gap":      0xbd790207e2ca742e,
	"gcc":      0x74d5a6fc333d35f5,
	"gzip":     0x1e4176520e808ddb,
	"mcf":      0xc0ff2fc5d823de4f,
	"parser":   0x85e318c83b116404,
	"perl.d":   0xfa19734d014d1234,
	"perl.s":   0x029dc3d176490a4a,
	"twolf":    0xde8f6cb1c3007617,
	"vortex":   0xd32bd732e4f278a2,
	"vpr.p":    0x5a7e79ca8000d38b,
	"vpr.r":    0x2da5cee79c38f010,
	"adpcm.de": 0x93cabc8946e86244,
	"adpcm.en": 0xb62a530ff9f012ed,
	"epic":     0x12886edb6afbf070,
	"g721.de":  0x037706cbd5c237c0,
	"g721.en":  0x2690477b5f74faa8,
	"gs.de":    0x0f2256bdd1949396,
	"gsm.de":   0xf1913a7ab346cdc7,
	"gsm.en":   0x1a085cb74e35605c,
	"jpg.de":   0xfa539c2929359e7b,
	"jpg.en":   0xe76be5ce237f9900,
	"mesa.m":   0x72dacc0919a4bdac,
	"mesa.o":   0x5a8523049702cb78,
	"mesa.t":   0xf32d532cf60ca2a6,
	"mpg2.de":  0x4e571aedfd99a96b,
	"mpg2.en":  0xec89b194f50c8cd9,
	"pegw.de":  0x451eb635cebc268d,
	"pegw.en":  0x42170640fe47bd34,
	"unepic":   0x795197d0da3fea12,
}

func TestAssembledCodeDigests(t *testing.T) {
	profiles := workload.AllProfiles()
	if len(profiles) != len(codeDigests) {
		t.Fatalf("%d profiles, %d pinned digests", len(profiles), len(codeDigests))
	}
	var word [4]byte
	for _, p := range profiles {
		h := fnv.New64a()
		for seed := int64(0); seed < 4; seed++ {
			w := workload.MustBuild(sweep.SeedProfile(p, seed))
			for _, in := range w.Code {
				binary.LittleEndian.PutUint32(word[:], uint32(isa.Encode(in)))
				h.Write(word[:])
			}
		}
		if got, want := h.Sum64(), codeDigests[p.Name]; got != want {
			t.Errorf("%s: code digest %#016x, want %#016x", p.Name, got, want)
		}
	}
}
