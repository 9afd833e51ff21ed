"""Configured worlds reproducing each of the paper's experiments.

The survey world (:mod:`~repro.scenarios.worldsurvey`) loads with the
package; the Tokyo case study (:mod:`~repro.scenarios.japan`, which
needs :mod:`repro.cdn`) and the exemplar runs load on first use.
"""

from .._lazy import lazy_exports
from .worldsurvey import (
    SurveyASSpec,
    build_survey_world,
    generate_specs,
    run_survey,
    run_survey_period,
)

__all__ = [
    "ExemplarRun",
    "build_exemplar_run",
    "PROBE_COUNTS",
    "ISP_DE_ASN",
    "ISP_US_ASN",
    "TokyoCaseStudy",
    "build_tokyo_case_study",
    "ISP_A_ASN",
    "ISP_B_ASN",
    "ISP_C_ASN",
    "ISP_D_ASN",
    "ISP_A_MOBILE_ASN",
    "SurveyASSpec",
    "generate_specs",
    "build_survey_world",
    "run_survey",
    "run_survey_period",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "exemplars": (
        "ISP_DE_ASN", "ISP_US_ASN", "PROBE_COUNTS", "ExemplarRun",
        "build_exemplar_run",
    ),
    "japan": (
        "ISP_A_ASN", "ISP_A_MOBILE_ASN", "ISP_B_ASN", "ISP_C_ASN",
        "ISP_D_ASN", "TokyoCaseStudy", "build_tokyo_case_study",
    ),
})
