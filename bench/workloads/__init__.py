"""The five workloads, by the names ``BENCHMARK.json`` gives them."""

from bench.workloads.broker_trace import BrokerTrace
from bench.workloads.campaign_journal import CampaignJournal
from bench.workloads.figure_suite import FigureSuite
from bench.workloads.lint_gate import LintGate
from bench.workloads.service_http import ServiceHttp

WORKLOADS = {
    cls.name: cls
    for cls in (FigureSuite, BrokerTrace, ServiceHttp, LintGate, CampaignJournal)
}
