"""Small dense MLPs in double precision with hand-written reverse-mode
gradients and a central finite-difference checker.

Hidden layers use the rectifier; the output layer is identity or sigmoid.
Parameters are immutable after init; training loops own mutable copies.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

OUT_ACTIVATIONS = ("identity", "sigmoid")
GRAD_CHECK_EPS = 1e-3  # grad_check's finite-difference step
GRAD_CHECK_FLOOR = 1e-8  # grad_check's floor of the relative-error denominator


class ShapeError(ValueError):
    """Raised when parameter / input widths are inconsistent."""


@dataclass
class MlpParams:
    """Weights and biases of a dense MLP.

    weights[i] has shape (layer_dims[i+1], layer_dims[i]); biases[i] has
    shape (layer_dims[i+1],).
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    out_activation: str = "identity"

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2:
            raise ShapeError("need at least one layer")
        if self.out_activation not in OUT_ACTIVATIONS:
            raise ShapeError(f"unknown output activation {self.out_activation!r}")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ShapeError("weights/biases count does not match layer_dims")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i + 1], dims[i]) or b.shape != (dims[i + 1],):
                raise ShapeError(
                    f"layer {i}: expected W{(dims[i + 1], dims[i])} b{(dims[i + 1],)}, "
                    f"got W{w.shape} b{b.shape}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: non-finite parameters")

    @property
    def in_width(self) -> int:
        return self.layer_dims[0]

    @property
    def out_width(self) -> int:
        return self.layer_dims[-1]

    @property
    def num_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def copy(self) -> "MlpParams":
        return MlpParams(
            self.layer_dims,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.out_activation,
        )


def init_params(layer_dims, seed, out_activation: str = "identity") -> MlpParams:
    """Deterministic uniform init in [-s, s] with s = sqrt(6/(fan_in+fan_out))."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in layer_dims)
    weights, biases = [], []
    for din, dout in zip(dims[:-1], dims[1:]):
        s = np.sqrt(6.0 / (din + dout))
        weights.append(rng.uniform(-s, s, size=(dout, din)))
        biases.append(rng.uniform(-s, s, size=dout))
    return MlpParams(dims, weights, biases, out_activation)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _as_batch(x: np.ndarray, width: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != width:
        raise ShapeError(f"input must be (B, {width}) rows, got shape {x.shape}")
    return x


def mlp_layers(p: MlpParams, x: np.ndarray) -> list[np.ndarray]:
    """Evaluate the MLP on (B, d0) rows or an (R, 1, d0) stack, keeping every
    layer's output. matmul runs each stack item as a one-row product, so item
    i rounds as the rows x[i] do.

    Returns:
        One array per layer, x's shape at width layer_dims[i + 1]; the last
        entry is the MLP output. mlp_backward takes the list of rows.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim != 3 or a.shape[1:] != (1, p.in_width):  # else an (R, 1, d0) stack
        a = _as_batch(a, p.in_width)
    layers = []
    last = len(p.weights) - 1
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        z = a @ w.T
        z += b  # in place, as is the rectifier: no second copy of a layer
        if i < last:
            a = np.maximum(z, 0.0, out=z)
        elif p.out_activation == "sigmoid":
            a = sigmoid(z)
        else:
            a = z
        layers.append(a)
    return layers


def mlp_forward(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Evaluate the MLP on (B, d0) rows, returning (B, out_width)."""
    return mlp_layers(p, _as_batch(x, p.in_width))[-1]


def mlp_backward(p: MlpParams, x: np.ndarray, layers: list[np.ndarray],
                 upstream_grad: np.ndarray, input_grad: bool = True):
    """Reverse-mode gradients for all parameters and the input.

    Args:
        p: parameters.
        x: input rows (B, d0).
        layers: mlp_layers(p, x) from the caller's forward pass; no forward
            pass runs here.
        upstream_grad: dLoss/dOutput, (B, out_width).
        input_grad: False skips the input gradient's product (a caller
            that discards it); the parameter gradients are the same bits.

    Returns:
        (weight_grads, bias_grads, input_grad) with shapes mirroring
        p.weights, p.biases and x; input_grad is None when not asked for.

    Raises:
        ShapeError: x, layers or upstream_grad do not have the shapes that
            p and x imply.
    """
    xb = _as_batch(x, p.in_width)
    rows = xb.shape[0]
    n_layers = len(p.weights)
    if len(layers) != n_layers:
        raise ShapeError(f"{len(layers)} layer outputs != {n_layers} layers")
    for i, a in enumerate(layers):
        if np.shape(a) != (rows, p.layer_dims[i + 1]):
            raise ShapeError(f"layer {i} output shape {np.shape(a)} != "
                             f"{(rows, p.layer_dims[i + 1])}")
    up = np.asarray(upstream_grad, dtype=float)
    if up.shape != (rows, p.out_width):
        raise ShapeError(
            f"upstream grad shape {up.shape} != {(rows, p.out_width)}"
        )
    acts = [xb, *layers]
    w_grads = [np.empty(0)] * n_layers
    b_grads = [np.empty(0)] * n_layers
    delta = up
    for i in range(n_layers - 1, -1, -1):
        a_out = acts[i + 1]
        if i == n_layers - 1:
            if p.out_activation == "sigmoid":
                delta = delta * a_out * (1.0 - a_out)
            # identity: delta unchanged
        else:
            delta = delta * (a_out > 0.0)
        w_grads[i] = delta.T @ acts[i]
        b_grads[i] = delta.sum(axis=0)
        if i or input_grad:
            delta = delta @ p.weights[i]
    return w_grads, b_grads, delta if input_grad else None


def grad_check(f, point: np.ndarray) -> float:
    """Compare an analytic gradient against central finite differences.

    Args:
        f: callable mapping a flat vector to (scalar value, gradient vector).
        point: flat evaluation point.

    Returns:
        The max over coordinates of |analytic - fd| / max(|analytic|, |fd|,
        GRAD_CHECK_FLOOR), fd taken at step GRAD_CHECK_EPS.
    """
    x = np.asarray(point, dtype=float).copy()
    val, grad = f(x)
    grad = np.asarray(grad, dtype=float)
    if not np.isfinite(val) or not np.isfinite(grad).all():
        raise FloatingPointError("non-finite evaluation in grad_check")
    worst = 0.0
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + GRAD_CHECK_EPS
        fp, _ = f(x)
        x[i] = orig - GRAD_CHECK_EPS
        fm, _ = f(x)
        x[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(f"non-finite evaluation near coordinate {i}")
        fd = (fp - fm) / (2.0 * GRAD_CHECK_EPS)
        denom = max(abs(grad[i]), abs(fd), GRAD_CHECK_FLOOR)
        worst = max(worst, abs(grad[i] - fd) / denom)
    return worst


def params_to_vector(p: MlpParams) -> np.ndarray:
    """Flatten all weights and biases into one vector (layer order, W then b)."""
    parts = []
    for w, b in zip(p.weights, p.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts) if parts else np.empty(0)


def params_from_vector(template: MlpParams, vec: np.ndarray) -> MlpParams:
    """Inverse of params_to_vector, using template for shapes."""
    vec = np.asarray(vec, dtype=float)
    if vec.size != template.num_params:
        raise ShapeError(f"vector size {vec.size} != {template.num_params}")
    weights, biases, off = [], [], 0
    for w, b in zip(template.weights, template.biases):
        weights.append(vec[off : off + w.size].reshape(w.shape).copy())
        off += w.size
        biases.append(vec[off : off + b.size].copy())
        off += b.size
    return MlpParams(template.layer_dims, weights, biases, template.out_activation)


# ---------------------------------------------------------------------------
# Parameter files: ascii header line, then little-endian float64 blobs
# (per layer: weights row-major, then biases). Sections concatenate.
# ---------------------------------------------------------------------------

MAGIC = "PVMLP1"


class ParamFileError(ValueError):
    """Raised on malformed parameter files."""


def save_params(p: MlpParams, fh, name: str = "mlp") -> None:
    if any(ch.isspace() for ch in name) or not name:
        raise ValueError(f"bad section name {name!r}")
    dims = ",".join(str(d) for d in p.layer_dims)
    fh.write(f"{MAGIC} name={name} out={p.out_activation} dims={dims}\n".encode("ascii"))
    for w, b in zip(p.weights, p.biases):
        fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_params(fh):
    """Read one section; returns (name, MlpParams) or None at EOF."""
    line = fh.readline()
    if not line:
        return None
    try:
        text = line.decode("ascii").strip()
    except UnicodeDecodeError as exc:
        raise ParamFileError("header is not ascii") from exc
    fields = text.split()
    if not fields or fields[0] != MAGIC:
        raise ParamFileError(f"bad magic in header: {text[:40]!r}")
    kv = {}
    for tok in fields[1:]:
        if "=" not in tok:
            raise ParamFileError(f"malformed header field {tok!r}")
        k, v = tok.split("=", 1)
        kv[k] = v
    try:
        name = kv["name"]
        out_act = kv["out"]
        dims = tuple(int(d) for d in kv["dims"].split(","))
    except (KeyError, ValueError) as exc:
        raise ParamFileError(f"malformed header: {text!r}") from exc
    if min(dims) <= 0:
        raise ParamFileError(f"section {name!r}: dims={kv['dims']} must all be positive")
    shapes = [(dout, din) for din, dout in zip(dims[:-1], dims[1:])]
    nbytes = 8 * sum(dout * din + dout for dout, din in shapes)
    here = fh.tell()
    left = fh.seek(0, io.SEEK_END) - here
    fh.seek(here)
    if nbytes > left:
        raise ParamFileError(f"section {name!r}: dims={kv['dims']} needs {nbytes} "
                             f"bytes, {left} left in the file")
    weights, biases = [], []
    for dout, din in shapes:
        flat = np.frombuffer(fh.read((dout * din + dout) * 8), dtype="<f8")
        weights.append(flat[: dout * din].reshape(dout, din).astype(float))
        biases.append(flat[dout * din :].astype(float))
    return name, MlpParams(dims, weights, biases, out_act)


def load_param_sections(fh) -> dict[str, MlpParams]:
    """Read all concatenated sections into a name -> params dict."""
    out: dict[str, MlpParams] = {}
    while True:
        item = load_params(fh)
        if item is None:
            return out
        name, params = item
        if name in out:
            raise ParamFileError(f"duplicate section {name!r}")
        out[name] = params
