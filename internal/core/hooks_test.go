package core

// Test hooks: only this package's tests call the code in this file, most
// of them while testing other behaviour, so it lives beside them.

// NewHistory returns an empty historical prior.
func NewHistory(cfg HistoryConfig) (*History, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := newHistory(cfg, 0)
	return &h, nil
}
