package guest

import "math/bits"

// Flag computation mirrors x86 semantics for the subset of flags the
// guest ISA defines (CF, PF, ZF, SF, OF). Translating a flag-writing
// instruction is substantially more expensive than translating a plain
// move — the cost asymmetry the paper calls out when explaining why TOL
// performance depends on the guest instruction mix.

// parity returns flagPF if the low byte of v has even parity (x86 PF).
func parity(v uint32) uint32 {
	if bits.OnesCount8(uint8(v))%2 == 0 {
		return flagPF
	}
	return 0
}

// szpFlags computes SF, ZF and PF of a result.
func szpFlags(res uint32) uint32 {
	f := parity(res)
	if res == 0 {
		f |= FlagZF
	}
	if int32(res) < 0 {
		f |= FlagSF
	}
	return f
}

// addFlags computes the full flag set of a+b=res.
func addFlags(a, b, res uint32) uint32 {
	f := szpFlags(res)
	if res < a {
		f |= FlagCF
	}
	// Overflow: operands same sign, result different sign.
	if (a^b)&0x8000_0000 == 0 && (a^res)&0x8000_0000 != 0 {
		f |= flagOF
	}
	return f
}

// subFlags computes the full flag set of a-b=res.
func subFlags(a, b, res uint32) uint32 {
	f := szpFlags(res)
	if a < b {
		f |= FlagCF
	}
	// Overflow: operands different sign, result sign differs from a.
	if (a^b)&0x8000_0000 != 0 && (a^res)&0x8000_0000 != 0 {
		f |= flagOF
	}
	return f
}

// logicFlags computes the flag set of a logical operation: CF=OF=0.
func logicFlags(res uint32) uint32 { return szpFlags(res) }

// incFlags computes the flags of INC (CF preserved from old flags).
func incFlags(old uint32, res uint32) uint32 {
	f := szpFlags(res) | old&FlagCF
	if res == 0x8000_0000 {
		f |= flagOF
	}
	return f
}

// decFlags computes the flags of DEC (CF preserved from old flags).
func decFlags(old uint32, res uint32) uint32 {
	f := szpFlags(res) | old&FlagCF
	if res == 0x7fff_ffff {
		f |= flagOF
	}
	return f
}

// negFlags computes the flags of NEG: CF set unless operand was zero.
func negFlags(a, res uint32) uint32 {
	f := szpFlags(res)
	if a != 0 {
		f |= FlagCF
	}
	if a == 0x8000_0000 {
		f |= flagOF
	}
	return f
}

// shlFlags computes flags of a left shift by count (count in 1..31).
func shlFlags(a uint32, count uint32, res uint32) uint32 {
	f := szpFlags(res)
	if a&(1<<(32-count)) != 0 {
		f |= FlagCF
	}
	return f
}

// shrFlags computes flags of a logical/arithmetic right shift.
func shrFlags(a uint32, count uint32, res uint32) uint32 {
	f := szpFlags(res)
	if a&(1<<(count-1)) != 0 {
		f |= FlagCF
	}
	return f
}

// mulFlags computes flags of a signed 32x32 multiply: SF/ZF/PF follow
// the truncated result and CF=OF=0. This deviates from x86 (which sets
// CF/OF on overflow, leaving SZP undefined) because the host ISA has no
// high-multiply to detect overflow cheaply; defining the flags this way
// gives the translation a precise, testable contract.
func mulFlags(a, b int32) uint32 {
	return szpFlags(uint32(a * b))
}

// fcmpFlags computes flags of an FP compare, following x86 FCOMI:
// ZF if equal, CF if less, both if unordered; SF=OF=0; PF on unordered.
func fcmpFlags(a, b float64) uint32 {
	switch {
	case a != a || b != b: // NaN: unordered
		return FlagZF | FlagCF | flagPF
	case a == b:
		return FlagZF
	case a < b:
		return FlagCF
	}
	return 0
}
