"""Deterministic result emission: CSV tables, JSON records and hand-rolled SVG plots.

Every emitted file embeds the config hash and artifact version.  Floats are
written with 17 significant digits (bit-faithful round trips) in CSV and via
shortest round-trip repr in JSON; no timestamps appear anywhere, so identical
inputs yield byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__

_SVG_W = 640
_SVG_H = 420
_MARGIN = 56
_FLOAT_FORMAT = "%.17g"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(path, payload: dict, config_hash: str) -> Path:
    path = Path(path)
    record = {"version": __version__, "config_hash": config_hash}
    record.update(_jsonable(payload))
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    return path


def density_matrix_record(dm, generating_system_hash: str) -> dict:
    """Serializable summary of a reduced density matrix."""
    return {
        "order": int(dm.order),
        "n_electrons": int(dm.n_electrons),
        "basis": dm.basis,
        "trace": dm.trace(),
        "normalization_target": float(dm.target),
        "hermiticity_error": dm.hermiticity_error(),
        "system_hash": generating_system_hash,
    }


def _format_column(cells) -> list[str]:
    """One CSV column: 17 significant digits when its dtype is floating, else str."""
    values = np.asarray(cells)
    if values.dtype.kind == "f":
        return [_FLOAT_FORMAT % c for c in values.astype(float, copy=False).tolist()]
    return [str(c) for c in cells]


def write_csv(path, columns: dict, config_hash: str) -> Path:
    """Write ``{name: column, ...}`` as a CSV table, one row per index of the columns."""
    path = Path(path)
    lines = [
        f"# version={__version__}",
        f"# config_hash={config_hash}",
        ",".join(columns),
    ]
    cells = [_format_column(column) for column in columns.values()]
    lines.extend(map(",".join, zip(*cells)))
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# SVG plotting (hand-rolled for byte determinism)


def _fmt(x: float) -> str:
    return format(x, ".8g")


def _scale(values, lo, hi, out_lo, out_hi) -> np.ndarray:
    span = hi - lo
    if span == 0:
        span = 1.0
    return out_lo + (np.asarray(values, dtype=float) - lo) / span * (out_hi - out_lo)


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """SVG polyline points, 8 significant digits each."""
    return " ".join(map("%.8g,%.8g".__mod__, zip(xs.tolist(), ys.tolist())))


def _svg_header(title: str, config_hash: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f"<!-- version={__version__} config_hash={config_hash} -->",
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W // 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]


def _svg_axes(xlabel: str, ylabel: str, xlo, xhi, ylo, yhi) -> list[str]:
    parts = [
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_SVG_W // 2}" y="{_SVG_H - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_SVG_H // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_SVG_H // 2})">{ylabel}</text>',
    ]
    for frac, val in ((0.0, xlo), (1.0, xhi)):
        x = _MARGIN + frac * (_SVG_W - 2 * _MARGIN)
        parts.append(
            f'<text x="{_fmt(x)}" y="{_SVG_H - _MARGIN + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(val)}</text>'
        )
    for frac, val in ((0.0, ylo), (1.0, yhi)):
        y = _SVG_H - _MARGIN - frac * (_SVG_H - 2 * _MARGIN)
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{_fmt(y + 3)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(val)}</text>'
        )
    return parts


_BAND_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def band_plot_svg(kgrid, bands, reference_levels, config_hash: str) -> str:
    """Band dispersion polylines with dashed particle/antiparticle reference lines."""
    kgrid = np.asarray(kgrid, dtype=float)
    bands = np.atleast_2d(np.asarray(bands, dtype=float))
    if kgrid.size == 0 or bands.size == 0:
        raise ValueError("cannot plot an empty band structure")
    marks = []
    for level in reference_levels:
        for value in (level.plus_level, level.minus_level):
            if value not in marks:
                marks.append(value)
    ylo = min(float(bands.min()), min(marks, default=float(bands.min())))
    yhi = max(float(bands.max()), max(marks, default=float(bands.max())))
    pad = 0.05 * (yhi - ylo or 1.0)
    ylo, yhi = ylo - pad, yhi + pad
    xlo, xhi = float(kgrid.min()), float(kgrid.max())

    parts = _svg_header("band structure", config_hash)
    parts += _svg_axes("k (1/bohr)", "energy (hartree)", xlo, xhi, ylo, yhi)
    xs = _scale(kgrid, xlo, xhi, _MARGIN, _SVG_W - _MARGIN)
    for n in range(bands.shape[0]):
        ys = _scale(bands[n], ylo, yhi, _SVG_H - _MARGIN, _MARGIN)
        pts = _points(xs, ys)
        color = _BAND_COLORS[n % len(_BAND_COLORS)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
    for value in marks:
        y = float(_scale(value, ylo, yhi, _SVG_H - _MARGIN, _MARGIN))
        parts.append(
            f'<line x1="{_MARGIN}" y1="{_fmt(y)}" x2="{_SVG_W - _MARGIN}" '
            f'y2="{_fmt(y)}" stroke="#555555" stroke-dasharray="6,4"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def spectral_plot_svg(omegas, weights, config_hash: str) -> str:
    omegas = np.asarray(omegas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if omegas.size == 0:
        raise ValueError("cannot plot an empty spectral function")
    xlo, xhi = float(omegas.min()), float(omegas.max())
    ylo, yhi = 0.0, float(weights.max()) * 1.05
    parts = _svg_header("spectral function", config_hash)
    parts += _svg_axes("omega (hartree)", "-Im Tr G / pi", xlo, xhi, ylo, yhi)
    xs = _scale(omegas, xlo, xhi, _MARGIN, _SVG_W - _MARGIN)
    ys = _scale(weights, ylo, yhi, _SVG_H - _MARGIN, _MARGIN)
    pts = _points(xs, ys)
    parts.append(
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.2" points="{pts}"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
