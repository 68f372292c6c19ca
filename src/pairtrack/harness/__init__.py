"""CLI, configuration, MOTChallenge file I/O and experiment drivers."""
