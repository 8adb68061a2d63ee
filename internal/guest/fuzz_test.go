package guest

import "testing"

// FuzzDecodeAt: guest instruction bytes come from outside the process
// (traces, file: specs, mutated images), so each frontend's DecodeAt
// returns an error or an instruction whose Size lies between 1 and
// len(b), and never panics. The seeds are one valid instruction per
// frontend, an empty slice and a truncated prefix.
func FuzzDecodeAt(f *testing.F) {
	x86 := encode(nil, Inst{Op: OpMovRI, R1: 1, Imm: 0x12345678})
	rv32 := rv32EncI(42, 0, 0, 5, 0x13) // addi x5, x0, 42
	f.Add(x86, uint32(0x1000))
	f.Add([]byte{byte(rv32), byte(rv32 >> 8), byte(rv32 >> 16), byte(rv32 >> 24)}, uint32(0x1000))
	f.Add([]byte{}, uint32(0))
	f.Add(x86[:2], uint32(0x1000))
	f.Fuzz(func(t *testing.T, b []byte, pc uint32) {
		for _, isa := range []*ISA{X86, RV32} {
			inst, err := isa.DecodeAt(b, pc)
			if err != nil {
				continue
			}
			if inst.Size < 1 || int(inst.Size) > len(b) {
				t.Fatalf("%s: decoded %d bytes as %+v, size %d outside 1..%d", isa.Name, len(b), inst, inst.Size, len(b))
			}
		}
	})
}
