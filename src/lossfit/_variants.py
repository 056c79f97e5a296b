"""Which function serves each job, for each payment variant.

Code that handles both variants looks its functions up in ``VARIANTS``
instead of branching on the ``PaymentKind``.  An entry names functions of
this module's namespace and reads them when asked, so a function that is
replaced on the modules holding it (as a tracer does) is the one handed
out.
"""
from __future__ import annotations

from .errors import DomainError
# the functions below are read by name through VARIANTS
from .mle import cov_mle_y, cov_mle_z, fit_mle_y, fit_mle_z, loglik_y, loglik_z
from .mtm import (
    _cov_mtm_z,
    cov_mtm_y,
    fit_mtm_y,
    fit_mtm_y_plugin,
    fit_mtm_z,
    validate_trim_y,
    validate_trim_z,
)
from .payments import PaymentKind, dist_y, dist_z


class Variant:
    """The functions that serve one payment variant, by role.

    Roles: ``fit_mle(sample, level=...)``, ``cov_mle(gamma, sigma,
    thresholds)``, ``cov_mtm(theta, sigma, thresholds, trim)``,
    ``validate_trim(sample, trim, fitted=None)``, ``loglik(gamma, sigma,
    sample)`` and ``dist(model, policy)``.  ``mtm_fitter(method)`` gives
    the trimmed-moment fit of a method.
    """

    def __init__(self, kind: PaymentKind, mtm: dict[str, str], **roles: str):
        self.kind = kind
        self._mtm = mtm
        self._roles = roles

    def __getattr__(self, role: str):
        roles = self.__dict__.get("_roles", {})
        if role not in roles:
            raise AttributeError(role)
        return globals()[roles[role]]

    def mtm_fitter(self, method: str):
        if method not in self._mtm:
            raise DomainError(f"{method} does not apply to {self.kind.value} data")
        return globals()[self._mtm[method]]


VARIANTS = {
    PaymentKind.PER_PAYMENT: Variant(
        PaymentKind.PER_PAYMENT, {"mtm": "fit_mtm_y", "mtm-plugin": "fit_mtm_y_plugin"},
        fit_mle="fit_mle_y", cov_mle="cov_mle_y", cov_mtm="cov_mtm_y",
        validate_trim="validate_trim_y", loglik="loglik_y", dist="dist_y"),
    PaymentKind.PER_LOSS: Variant(
        PaymentKind.PER_LOSS, {"mtm": "fit_mtm_z"},
        fit_mle="fit_mle_z", cov_mle="cov_mle_z", cov_mtm="_cov_mtm_z",
        validate_trim="validate_trim_z", loglik="loglik_z", dist="dist_z"),
}
