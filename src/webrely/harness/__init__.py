"""Web test harness: crawl, generate cases, run concurrent testers, analyze."""

from .analyzer import ActivityRecord, ErrorLog, analyze_logs, parse_log_file
from .campaign import CampaignConfig, run_campaign
from .cases import (
    ACTIONS,
    Step,
    TestCase,
    TestProfile,
    default_profiles,
    generate_test_cases,
)
from .crawler import Credentials, CrawlLimits, crawl_site
from .mock import FAULT_MARKER, MockTarget, SeededFault, load_fault_table
from .model import FormSpec, Node, SiteModel, node_id
from .replay import predict_density, predict_faults
from .runner import HarnessConfig, run_evaluation

__all__ = [
    "ACTIONS",
    "ActivityRecord",
    "CampaignConfig",
    "CrawlLimits",
    "Credentials",
    "ErrorLog",
    "FAULT_MARKER",
    "FormSpec",
    "HarnessConfig",
    "MockTarget",
    "Node",
    "SeededFault",
    "SiteModel",
    "Step",
    "TestCase",
    "TestProfile",
    "analyze_logs",
    "crawl_site",
    "default_profiles",
    "generate_test_cases",
    "load_fault_table",
    "node_id",
    "parse_log_file",
    "predict_density",
    "predict_faults",
    "run_campaign",
    "run_evaluation",
]
