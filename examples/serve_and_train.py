"""Serve a PCR dataset over TCP and train against it remotely.

Builds a small synthetic PCR dataset, starts a :class:`PCRRecordServer` on a
localhost port, and drives a training loop through
:class:`RemoteRecordSource` — the network twin of ``PCRDataset``.  Halfway
through, the scan group is switched at runtime: every subsequent fetch ships
fewer bytes over the wire, and the server's scan-prefix cache serves the
lower fidelity by slicing the full-fidelity prefixes it already holds
(prefix-containment hits — no storage I/O at all).

Run with:  PYTHONPATH=src python examples/serve_and_train.py
"""

from __future__ import annotations

import tempfile
from dataclasses import replace

from repro.core import PCRDataset
from repro.datasets import HAM10000_SPEC, generate_dataset
from repro.pipeline import DataLoader, LoaderConfig
from repro.serving.client import PCRClient
from repro.serving.remote_source import RemoteRecordSource
from repro.serving.server import PCRRecordServer
from repro.training import SGD, Trainer, TinyShuffleNet

N_EPOCHS = 4
SWITCH_AT_EPOCH = 2
LOW_FIDELITY_GROUP = 2


def main() -> None:
    spec = replace(HAM10000_SPEC, n_samples=64, image_size=40, images_per_record=16)
    workdir = tempfile.mkdtemp(prefix="pcr-serving-")
    print("Building a HAM10000-like PCR dataset ...")
    dataset = PCRDataset.build(
        generate_dataset(spec, seed=1),
        workdir,
        images_per_record=spec.images_per_record,
        quality=spec.jpeg_quality,
    )
    dataset.close()

    with PCRRecordServer(workdir, port=0) as server:
        print(f"Serving {workdir} on {server.host}:{server.port}")
        with RemoteRecordSource(port=server.port) as source:
            loader = DataLoader(source, LoaderConfig(batch_size=16, n_workers=2, seed=0))
            model = TinyShuffleNet(n_classes=spec.n_classes, width=8)
            trainer = Trainer(model, SGD(learning_rate=0.05, momentum=0.9))

            print(f"\nTraining {N_EPOCHS} epochs over the network:")
            for epoch in range(N_EPOCHS):
                if epoch == SWITCH_AT_EPOCH:
                    loader.set_scan_group(LOW_FIDELITY_GROUP)
                    print(
                        f"    -> runtime switch to scan group {LOW_FIDELITY_GROUP} "
                        "(fewer bytes per record from here on)"
                    )
                result = trainer.train_epoch(loader)
                print(
                    f"  epoch {epoch}: scan group {result.scan_group:>2}  "
                    f"loss {result.train_loss:.3f}  acc {result.train_accuracy:.2f}  "
                    f"wire bytes/epoch {source.epoch_bytes(result.scan_group):>8}"
                )

        with PCRClient(port=server.port) as client:
            cache = client.stat()["cache"]
        print(
            f"\nServer cache: {cache['exact_hits']} exact hits, "
            f"{cache['prefix_hits']} prefix-containment hits, "
            f"{cache['misses']} misses "
            f"(prefix hit rate {cache['prefix_hit_rate']:.2f})"
        )
        print(
            "Every low-fidelity epoch after the switch was served by slicing "
            "cached full-fidelity prefixes — no storage reads."
        )


if __name__ == "__main__":
    main()
