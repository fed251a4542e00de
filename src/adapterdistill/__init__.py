"""Multi-tenant bottleneck adapters with fusion-attention distillation."""

from .adapter import (AdapterWeights, adapter_forward, added_params_fraction,
                      backbone_param_count, init_adapter)
from .artifacts import load_adapter, load_head, save_adapter, save_head
from .backbone import Backbone, BackboneConfig, HeadWeights, tokenize_pair
from .bench import cost_report, inference_flops
from .faq_data import (KnowledgeBase, KnowledgePoint, LabeledPairs, bm25_score,
                       build_dataset, build_negatives, build_positives,
                       make_synthetic_tenants)
from .fusion import (FusionWeights, TeacherSet, combined_loss, distill_loss,
                     fusion_attend, init_fusion, make_teacher_set)
from .metrics import accuracy, auc
from .platform import Platform, StorageModel, TenantRecord, capacity_table
from .tensor import Tensor, backward, grad_check, no_grad
from .trainer import (EvalReport, TrainConfig, evaluate_artifact, select_eta,
                      train_baseline, train_stage1, train_stage2, train_tenant)

__version__ = "0.1.0"
