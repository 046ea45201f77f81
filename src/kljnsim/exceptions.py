"""Error types shared across the simulator."""


class ConfigError(ValueError):
    """Invalid configuration value or malformed config file."""


class ShapeMismatchError(ValueError):
    """Arrays of incompatible shape, or solved samples that are not finite."""


class InferenceError(RuntimeError):
    """Resistance inference attempted on degenerate measurement data."""
