"""Experiment configuration files.

Plain-text sectioned key=value format:

    # comment
    [dataset]
    mode = synthetic
    num_classes = 5

Every parsed value remembers its line number so type errors can point at the
offending line. Unknown sections and keys are allowed (forward compatible);
missing required keys are reported with the config path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError

_MISSING = object()


class ConfigError(ValidationError):
    """Config file problem, with file and line context where possible."""


class _AboveMaximum(ValueError):
    """A parsed value above its bound; args[0] describes what it must be."""


@dataclass(frozen=True)
class _Entry:
    value: str
    line: int


class ExperimentConfig:
    def __init__(self, path: str, sections: dict[str, dict[str, _Entry]]):
        self.path = path
        self.sections = sections

    def _entry(self, section: str, key: str, default):
        entry = self.sections.get(section, {}).get(key)
        if entry is None:
            if default is _MISSING:
                raise ConfigError(f"{self.path}: missing required key [{section}] {key}")
            return None
        return entry

    def get_str(self, section: str, key: str, default=_MISSING) -> str:
        entry = self._entry(section, key, default)
        return default if entry is None else entry.value  # type: ignore[return-value]

    def _typed(self, section, key, default, convert, describe):
        entry = self._entry(section, key, default)
        if entry is None:
            return default
        try:
            return convert(entry.value)
        except ValueError as exc:
            need = exc.args[0] if isinstance(exc, _AboveMaximum) else describe
            raise ConfigError(
                f"{self.path}:{entry.line}: [{section}] {key} must be {need}, "
                f"got {entry.value!r}"
            ) from None

    def get_int(self, section, key, default=_MISSING, minimum=None, maximum=None) -> int:
        def convert(text):
            value = int(text)
            if minimum is not None and value < minimum:
                raise ValueError(text)
            if maximum is not None and value > maximum:
                raise _AboveMaximum(f"an integer <= {maximum}")
            return value

        describe = "an integer" if minimum is None else f"an integer >= {minimum}"
        return self._typed(section, key, default, convert, describe)

    def get_float(self, section, key, default=_MISSING) -> float:
        return self._typed(section, key, default, float, "a number")

    def get_bool(self, section, key, default=_MISSING) -> bool:
        def convert(text):
            lowered = text.strip().lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(text)

        return self._typed(section, key, default, convert, "a boolean")

    def get_int_list(self, section, key, default=_MISSING) -> list[int]:
        def convert(text):
            return [int(p) for p in text.replace(";", ",").split(",") if p.strip()]

        return self._typed(section, key, default, convert, "a comma-separated integer list")

    def get_float_list(self, section, key, default=_MISSING) -> list[float]:
        def convert(text):
            return [float(p) for p in text.replace(";", ",").split(",") if p.strip()]

        return self._typed(section, key, default, convert, "a comma-separated number list")

    def section_items(self, section: str) -> dict[str, str]:
        return {k: e.value for k, e in self.sections.get(section, {}).items()}

    def resolved_text(self, seed: int | None = None) -> str:
        """Canonical copy of the config for the output directory."""
        lines = []
        if seed is not None:
            lines += ["[resolved]", f"seed = {seed}", ""]
        for section in self.sections:
            lines.append(f"[{section}]")
            for key, entry in self.sections[section].items():
                lines.append(f"{key} = {entry.value}")
            lines.append("")
        return "\n".join(lines)


def parse_config_text(text: str, path: str = "<config>") -> ExperimentConfig:
    sections: dict[str, dict[str, _Entry]] = {}
    current: dict[str, _Entry] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current_name = line[1:-1].strip()
            if not current_name:
                raise ConfigError(f"{path}:{lineno}: empty section name")
            current = sections.setdefault(current_name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in current:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} in [{current_name}]")
        current[key] = _Entry(value=value, line=lineno)
    return ExperimentConfig(path=path, sections=sections)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_config_text(text, str(path))
