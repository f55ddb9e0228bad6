package platform

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse resolves a configuration string: a registry name ("neve-vhe"), or
// a comma-separated axis=value list ("arch=arm,nesting=2,neve,gicv2").
// Bare axis names are booleans. Supported axes:
//
//	arch=arm|x86          architecture (default arm)
//	feat=v8.0|v8.1|v8.3|v8.4
//	nesting=1|2|3         virtualization depth
//	hostvhe, guestvhe     VHE host / guest hypervisor builds
//	neve                  NEVE guest hypervisor (v8.4)
//	ablation=defer+redirect+cached|none
//	                      enabled NEVE mechanism subset
//	paravirt              hvc-rewritten guest hypervisor (pre-NV hardware)
//	gicv2                 memory-mapped GIC hypervisor control interface
//	optvhe                optimized VHE guest hypervisor (Section 7.1)
//	jit=off|on            trace-JIT layer (default on)
//	cpus=N, ram=MiB       machine sizing
//	trace                 record individual trap events
//	noshadow              disable VMCS shadowing (x86)
//
// The returned spec is validated.
func Parse(config string) (Spec, error) {
	config = strings.TrimSpace(config)
	if config == "" {
		return Spec{}, fmt.Errorf("platform: empty configuration")
	}
	if spec, ok := Lookup(config); ok {
		return spec, nil
	}
	if !strings.ContainsAny(config, "=,") {
		return Spec{}, fmt.Errorf("platform: unknown configuration %q (known: %s)",
			config, strings.Join(Names(), ", "))
	}
	var s Spec
	for _, field := range strings.Split(config, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, hasVal := strings.Cut(field, "=")
		if err := s.setAxis(key, val, hasVal); err != nil {
			return Spec{}, err
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func (s *Spec) setAxis(key, val string, hasVal bool) error {
	boolAxis := func(dst *bool) error {
		if hasVal {
			on, err := strconv.ParseBool(val)
			if err != nil {
				return fmt.Errorf("platform: axis %s: %q is not a boolean", key, val)
			}
			*dst = on
			return nil
		}
		*dst = true
		return nil
	}
	switch key {
	case "arch":
		switch val {
		case "arm":
			s.Arch = ARM
		case "x86":
			s.Arch = X86
		default:
			return fmt.Errorf("platform: unknown arch %q (arm or x86)", val)
		}
	case "feat":
		switch val {
		case "v8.0":
			s.Feat = FeatV80
		case "v8.1":
			s.Feat = FeatV81
		case "v8.3":
			s.Feat = FeatV83
		case "v8.4":
			s.Feat = FeatV84
		default:
			return fmt.Errorf("platform: unknown feature level %q (v8.0, v8.1, v8.3, v8.4)", val)
		}
	case "nesting":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("platform: nesting=%q is not a number", val)
		}
		s.Nesting = n
	case "hostvhe":
		return boolAxis(&s.HostVHE)
	case "guestvhe", "vhe":
		return boolAxis(&s.GuestVHE)
	case "neve":
		return boolAxis(&s.NEVE)
	case "paravirt":
		return boolAxis(&s.Paravirt)
	case "gicv2":
		return boolAxis(&s.GICv2)
	case "optvhe":
		return boolAxis(&s.OptimizedVHE)
	case "trace":
		return boolAxis(&s.RecordTrace)
	case "noshadow":
		return boolAxis(&s.NoShadowing)
	case "ablation":
		abl := Ablation{DisableDefer: true, DisableRedirect: true, DisableCached: true}
		if val != "none" {
			for _, mech := range strings.Split(val, "+") {
				switch mech {
				case "defer":
					abl.DisableDefer = false
				case "redirect":
					abl.DisableRedirect = false
				case "cached":
					abl.DisableCached = false
				default:
					return fmt.Errorf("platform: unknown NEVE mechanism %q (defer, redirect, cached, none)", mech)
				}
			}
		}
		s.Ablation = &abl
	case "jit":
		switch {
		case !hasVal || val == "on":
			s.JITOff = false
		case val == "off":
			s.JITOff = true
		default:
			return fmt.Errorf("platform: jit=%q is not off or on", val)
		}
	case "cpus":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("platform: cpus=%q is not a number", val)
		}
		s.CPUs = n
	case "ram":
		n, err := strconv.ParseUint(val, 10, 32)
		if err != nil {
			return fmt.Errorf("platform: ram=%q is not a MiB count", val)
		}
		s.RAMSize = n << 20
	default:
		return fmt.Errorf("platform: unknown axis %q", key)
	}
	return nil
}
