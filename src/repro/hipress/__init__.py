"""HiPress: the top-level compression-aware training framework facade."""

# Accordion lives in the adaptive control plane; re-exported here.
from ..adaptive.accordion import AccordionController, AdaptiveAlgorithm
from .framework import Profile, TrainingJob

__all__ = ["AccordionController", "AdaptiveAlgorithm", "Profile",
           "TrainingJob"]
