"""Packaging metadata for the BatchER reproduction.

Installs the ``repro`` package from ``src/`` plus console entry points for the
developer tuning harness and the experiment report runner.
"""

from pathlib import Path

from setuptools import find_packages, setup

_readme = Path(__file__).parent / "README.md"

setup(
    name="batcher-repro",
    version="1.10.0",
    description=(
        "Reproduction of 'Cost-Effective In-Context Learning for Entity "
        "Resolution: A Design Space Exploration' (ICDE 2024) with a staged "
        "pipeline API, concurrent LLM dispatch, a streaming Resolver, a "
        "micro-batching resolution server, a sharded, checkpointable "
        "run engine and a unified tracing + metrics layer"
    ),
    long_description=_readme.read_text(encoding="utf-8") if _readme.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={
        "console_scripts": [
            "repro-tune-check=repro.experiments.tune_check:main",
            "repro-experiments=repro.experiments.runner:main",
            "repro-serve=repro.service.cli:main",
            "repro-trace=repro.observability.cli:main",
        ]
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
    ],
)
