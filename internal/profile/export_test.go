package profile

// ConfigHash exposes the comparability hash of an arbitrary profile to
// the encoder oracle tests.
func ConfigHash(p *Profile) string { return p.configHash() }
