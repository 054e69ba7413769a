package engine

// goldenAnalyticOptions is the options type the analytic entry points
// (KDE, TERMS, TRAJECTORY, CLUSTER) take. It is the ONE line that differs
// between the commit golden_test.go was recorded at (AnalyticOptions) and
// the single-driver engine (Options), so golden_test.go itself stays
// byte-identical across the refactor.
type goldenAnalyticOptions = Options
