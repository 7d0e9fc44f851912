package engine

import "testing"

// TestFingerprintIgnoresPackedAndStream: the two ignored fields move neither
// the fingerprint nor validation, while every live knob moves the
// fingerprint.
func TestFingerprintIgnoresPackedAndStream(t *testing.T) {
	base := Options{Pool: 8, TableCacheMB: 4}
	ignored := base
	ignored.Packed, ignored.Stream = true, true
	if ignored.Fingerprint() != base.Fingerprint() {
		t.Fatal("Packed and Stream move the fingerprint")
	}
	if err := ignored.Validate(); err != nil {
		t.Fatalf("Packed and Stream fail validation: %v", err)
	}
	for name, change := range map[string]func(*Options){
		"TableCacheMB": func(o *Options) { o.TableCacheMB++ },
		"Pool":         func(o *Options) { o.Pool++ },
		"ShortExp":     func(o *Options) { o.ShortExp = 400 },
		"SpotCheck":    func(o *Options) { o.SpotCheck = true },
		"ANCheck":      func(o *Options) { o.ANCheck = true },
	} {
		o := base
		change(&o)
		if o.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s does not move the fingerprint", name)
		}
	}
}
