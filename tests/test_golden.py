"""Byte identity: sha256 digests of library and CLI outputs on fixed, valid inputs.

Each digest covers one output's bytes, dtypes, shapes and Python reprs, so
a change that alters any of them on these inputs fails here.  A change that
alters bytes on purpose replaces the digests with the ones that

    PYTHONPATH=src python tests/test_golden.py

prints, and says which of them changed and why.  The inputs hold no signed
zeros, whose sign the docs leave unspecified.
"""

import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np
import pytest

from ultraclust import (
    Dendrogram,
    LatticeConfig,
    distance_histogram,
    is_ultrametric,
    lattice_generate,
    minimax_oracle,
    pairwise_matrix,
    radii_from_valleys,
    save_matrix_csv,
    spheric_clustering,
    stabilize,
    subdominant,
)
from ultraclust.cli import main
from conftest import path_dissim, random_dissim, tree_dissim


def inputs():
    """Seeded dissimilarities of order at most 70: many-level, inf holes, ties, a path, a lattice."""
    rng = np.random.default_rng(1919)
    return {
        "uniform": random_dissim(rng, 60),
        "holes": random_dissim(rng, 50, with_inf=True),
        "integer": random_dissim(rng, 70, integer=True),
        "path": path_dissim(24),
        "lattice": pairwise_matrix(lattice_generate(LatticeConfig(2, 3, 3, 3))),
    }


def stepping_inputs():
    """Many-level inputs on which the doubling search reaches some powers by steps q <- A·q."""
    return {"uniform-300": random_dissim(np.random.default_rng(300), 300), "tree-600": tree_dissim(600, 0, False)}


def few_level_inputs():
    """Inputs of at most four levels on which the search for m goes by bits, or hands over (the clique and path)."""
    cells = np.random.default_rng(837).choice(45 * 45, 837, replace=False)
    grid = np.stack(np.divmod(cells, 45), axis=1).astype(float)
    clique_and_path = np.full((1000, 1000), 2.0)
    clique_and_path[:500, :500] = 1.0  # a 500-clique, then a 500-point path from its last point: m = 501
    i = np.arange(499, 999)
    clique_and_path[i, i + 1] = clique_and_path[i + 1, i] = 1.0
    np.fill_diagonal(clique_and_path, 0.0)
    return {
        "lattice-1600": pairwise_matrix(lattice_generate(LatticeConfig(5, 5, 8, 8))),
        "integer-grid-837": pairwise_matrix(grid, metric="manhattan"),
        "path-1000": path_dissim(1000),
        "clique-path-1000": clique_and_path,
    }


def signed_graph():
    """A symmetric weight matrix with negative weights and inf for missing edges."""
    rng = np.random.default_rng(1919)
    w = np.triu(rng.uniform(-5.0, 5.0, (40, 40)), 1)
    w[np.triu(rng.random((40, 40)) < 0.2, 1)] = np.inf
    w = w + w.T
    np.fill_diagonal(w, 0.0)
    return w


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _histogram_parts(hist):
    return hist.mode, hist.values, hist.counts, hist.peaks, hist.valleys, hist.overflow


def library_outputs(a):
    """Named digests of every library output on one dissimilarity ``a``."""
    out = {}
    for strategy in ("linear", "doubling"):
        r = stabilize(a, strategy)
        out[f"stabilize-{strategy}"] = digest(r.star, r.m, r.ultrametricity, r.power_trace)
        out[f"stabilize-{strategy}-dendrogram"] = digest(r.dendrogram.order, r.dendrogram.h)
    star = stabilize(a).star
    out["subdominant"] = digest(subdominant(a))
    out["minimax_oracle"] = digest(minimax_oracle(a))
    raised = star.copy()
    raised[0, 1] = raised[1, 0] = 1e9
    out["is_ultrametric"] = digest([is_ultrametric(m) for m in (a, star, raised)])
    radii = [float(r) for r in np.unique(star)] + [np.inf]
    clusterings = [spheric_clustering(star, r) for r in radii]
    out["spheric_clustering"] = digest(*[(c.n, c.radius, c.num_clusters) for c in clusterings],
                                       *[c.assignment for c in clusterings])
    d = Dendrogram.from_matrix(a)
    out["dendrogram"] = digest(d.order, d.h, d.levels(), *_histogram_parts(d.histogram()))
    out["dendrogram-cut"] = digest(*[d.cut(r) for r in radii])
    out["dendrogram-binned"] = digest(*_histogram_parts(d.histogram("binned")),
                                      *_histogram_parts(d.histogram("binned", 7)))
    hists = [distance_histogram(a), distance_histogram(a, "binned"), distance_histogram(star)]
    out["histograms"] = digest(*[p for h in hists for p in _histogram_parts(h)],
                               *[radii_from_valleys(h, 3) for h in hists])
    return out


# CLI commands on files named in one working directory
SESSION = [
    ["generate", "--grid", "2x3", "--cluster", "3x3"],
    ["generate", "--grid", "2x2", "--cluster", "3x4", "--spacing", "0.5", "--gap", "2"],
    ["analyze", "--input", "pts.csv", "--kind", "points"],
    ["analyze", "--input", "pts.csv", "--kind", "points", "--format", "text"],
    ["analyze", "--input", "pts.csv", "--kind", "points", "--metric", "euclidean"],
    ["ultrametric", "--input", "pts.csv", "--kind", "points"],
    ["cluster", "--input", "star.csv"],
    ["cluster", "--input", "pts.csv", "--kind", "points", "--radius", "2"],
    ["histogram", "--input", "pts.csv", "--kind", "points"],
    ["histogram", "--input", "star.csv", "--stage", "stabilized"],
    ["histogram", "--input", "pts.csv", "--kind", "points", "--stage", "trace"],
    ["histogram", "--input", "pts.csv", "--kind", "points", "--mode", "binned", "--bins", "7"],
    ["analyze", "--input", "holes.csv"],
    ["analyze", "--input", "holes.csv", "--format", "text"],
    ["ultrametric", "--input", "holes.csv"],
    ["cluster", "--input", "holes.csv"],
    ["cluster", "--input", "holes.csv", "--radius", "0.6"],
    ["cluster", "--input", "holes.csv", "--radius", "inf"],
    ["histogram", "--input", "holes.csv"],
    ["histogram", "--input", "holes.csv", "--stage", "stabilized"],
    ["histogram", "--input", "holes.csv", "--stage", "trace"],
    ["histogram", "--input", "holes.csv", "--mode", "binned"],
]


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def cli_outputs(workdir, holes):
    """Named digests of each SESSION command, once to stdout and once through --output.

    The first ``generate`` writes ``pts.csv`` and the first ``ultrametric``
    ``star.csv``, which later commands read; ``holes`` is saved as ``holes.csv``.
    """
    save_matrix_csv(holes, os.path.join(workdir, "holes.csv"))
    made = {"generate": "pts.csv", "ultrametric": "star.csv"}
    out = {}
    for argv in SESSION:
        full = [os.path.join(workdir, x) if x.endswith(".csv") else x for x in argv]
        target = os.path.join(workdir, made.pop(argv[0], None) or "out.txt")
        written = _run(full + ["--output", target])
        with open(target, "rb") as fh:
            out["cli " + " ".join(argv)] = digest(*_run(full), *written, fh.read())
    return out


def compressed_outputs(workdir):
    """Named digests of one ``generate`` output's file bytes under each compressed suffix."""
    out = {}
    for suffix in (".gz", ".bz2", ".xz", ".lzma"):
        path = os.path.join(workdir, "pts.csv" + suffix)
        _run(["generate", "--grid", "2x3", "--cluster", "3x3", "--output", path])
        with open(path, "rb") as fh:
            out["compressed generate " + suffix] = digest(fh.read())
    return out


def all_outputs(workdir):
    cases = inputs()
    out = {f"{name} {key}": value for name, a in cases.items() for key, value in library_outputs(a).items()}
    for name, a in {**stepping_inputs(), **few_level_inputs()}.items():
        r = stabilize(a)
        out[f"{name} stabilize-doubling"] = digest(r.star, r.m, r.ultrametricity, r.power_trace)
    out["signed minimax_oracle"] = digest(minimax_oracle(signed_graph()))
    out.update(cli_outputs(workdir, cases["holes"]))
    out.update(compressed_outputs(workdir))
    return out


DIGESTS = {
    'cli analyze --input holes.csv': '5ab6a2b09996e75b7fb5387b9447c676cc9f42b717dbe54662aa2b11bdebe079',
    'cli analyze --input holes.csv --format text': '8f075518f4bc1f6a0d1236a740f86d96a8ad4d503e1c75207032fb0489740145',
    'cli analyze --input pts.csv --kind points': '6965c3b6aceb7b8e0759850ecfd781e255f5ea799351e627a7ccfa5b6745bdd6',
    'cli analyze --input pts.csv --kind points --format text': 'be67ff1f011ad849644d11f395300b4debfd24e65215e08715d536dc6546daba',
    'cli analyze --input pts.csv --kind points --metric euclidean': '1aa5bd189b21770f50d573fdf5d41a01ac8eef3008f960f9ca99904c47293b3c',
    'cli cluster --input holes.csv': '9ea2826486c3ebd8bc3bbb796abce10743a8602e06013095376636004790c380',
    'cli cluster --input holes.csv --radius 0.6': '3dac3eecb7f1717318b8c59fdda02bac376eddccaaef8a8c3309de24bfccaa96',
    'cli cluster --input holes.csv --radius inf': '5bf7b224b80f3f2f4c304b60632a551924f07073067d76c13d21b2ad00bb8fe1',
    'cli cluster --input pts.csv --kind points --radius 2': '9680e5c6673c37a8581dcded1527fac26f827cda4cb3e5bc85915e8ecbf07657',
    'cli cluster --input star.csv': '9680e5c6673c37a8581dcded1527fac26f827cda4cb3e5bc85915e8ecbf07657',
    'cli generate --grid 2x2 --cluster 3x4 --spacing 0.5 --gap 2': '3c5a0677dc90f8136ea7006c49811ca9a3f80b75f746c1d55704e3e318b96461',
    'cli generate --grid 2x3 --cluster 3x3': 'c6390a7f638da1c973fe90d1c962367bbc6b4bc93e9f653c57b56a28367e9353',
    'cli histogram --input holes.csv': 'fca9d6e3063e57988c9cd5b95d1b87b06c8ee810212484c01c21b12a296f718f',
    'cli histogram --input holes.csv --mode binned': 'c0df680fed4a9e9b45306c5062f79087dadd09ea1f84f3638ac722d78600526d',
    'cli histogram --input holes.csv --stage stabilized': '35308d829af555dc6afe92bfa9b0f20d7bd31ef9334d1d9a8599e08ac49f3ae6',
    'cli histogram --input holes.csv --stage trace': 'a368aa5a67e232237d042b1e4855e36ec4a640d3e1d90360e7282861bd6d18fa',
    'cli histogram --input pts.csv --kind points': 'e72e2d5c5c33d3abe9418639740e360c8665df270309f75add448353b2eaa3e3',
    'cli histogram --input pts.csv --kind points --mode binned --bins 7': '1efdd5c4cdb6169f5a4199db8ea9619f8bc4cc85083689b2dd65bf91093ba33f',
    'cli histogram --input pts.csv --kind points --stage trace': '20cab072a38439fb93cb9f9beab320155fa23ec28f47307f370d983d40cd7a7f',
    'cli histogram --input star.csv --stage stabilized': 'f3b609d90e90a27e0f4acd9008372a8c9f687f30fcdb290940b1d6733d7025e8',
    'cli ultrametric --input holes.csv': '0455f8d261380a3676d49ec5d4e3538b67909171de373a0a48039c6cee0fb4fa',
    'cli ultrametric --input pts.csv --kind points': '5576605645c3656977bd1444a40eb05882d8835f76c54d593aa158fc48424b2b',
    'clique-path-1000 stabilize-doubling': 'b3c74e5c9b8b17a22869e8f8310140397f8fbe142917f8e5b2214496c56edf20',
    'compressed generate .bz2': 'a0d5313da8d147a12d328bd27147373245f806635d01be8639f428e157c1ba14',
    'compressed generate .gz': '25ce5b55eae3b4a99df257047ee0704aadf2092a21bc3a30475f3ec438b5c20d',
    'compressed generate .lzma': 'e7df061312751235d39ffc8c9f4a5425a37881bdcc74bad0e4602e4919abbe0b',
    'compressed generate .xz': 'e7df061312751235d39ffc8c9f4a5425a37881bdcc74bad0e4602e4919abbe0b',
    'holes dendrogram': '184463828138c1c3a19fb933263428d34ef70674c3786e4cf765a36237a38d5f',
    'holes dendrogram-binned': '21694864f18913b4b4ccd6b2b60298e9fb63b9168dd0c1f75bc0ad3bb480fabc',
    'holes dendrogram-cut': '1e26bd92f90188bc522e24af1d9acee6c86ea7664439f8a50dd85886d11c7203',
    'holes histograms': '1c2d037b5d50549a88216df6252649bd872cfe9ab95cb13e337250927aa9e1b3',
    'holes is_ultrametric': 'e87b90e308ac1276e151c56f91da145768b95c5ab8008456aec03571cf59d74a',
    'holes minimax_oracle': '2ea06166eb33ed4b9eebe78b1af3726db19865be870859eaeaffc1e3ddebbd3b',
    'holes spheric_clustering': '6d1fcd4cfb8d5160a2719518835645818d9fe61b74f1fef5864e56e49d128979',
    'holes stabilize-doubling': '8d3a329cf0adbdca2f27cdd79f4f21a60035299ee524a32a827b8abca8727c90',
    'holes stabilize-doubling-dendrogram': '5d82541c671e02e1097909712e2d8e294d1b3f66580d86fca22ac2145dca9aad',
    'holes stabilize-linear': 'a076b09879ea9e9c4c298703c67f8a1971325c3d7e1fb567a02cf24e700b74c3',
    'holes stabilize-linear-dendrogram': '5d82541c671e02e1097909712e2d8e294d1b3f66580d86fca22ac2145dca9aad',
    'holes subdominant': '2ea06166eb33ed4b9eebe78b1af3726db19865be870859eaeaffc1e3ddebbd3b',
    'integer dendrogram': 'fd3855f721346b54dc9909ae56e45bdcb7d67ef4d17834364e0e6fcbe1e79ced',
    'integer dendrogram-binned': 'fdba7a5217a85b5f75038211716dad7c410e4b10084556340a80e6e65a1ea022',
    'integer dendrogram-cut': '5e5e750a1f45c633dd4e1ac0bc9baa8b31d368b782bef807cc60d2db0634c625',
    'integer histograms': '91e5529924b6f92f6e1523eecb86459a77b6b667ea99922afcf45c51788bf272',
    'integer is_ultrametric': 'e87b90e308ac1276e151c56f91da145768b95c5ab8008456aec03571cf59d74a',
    'integer minimax_oracle': 'e9c74be7d512fc6f7efbd30527c8235ac7d1627309365949382ee14572b6080b',
    'integer spheric_clustering': 'bef5c32b8e089ca5439ba7c953e9a958aa0d7538a234e14b49b8ea7a43a3fd70',
    'integer stabilize-doubling': 'aece2cde17309e0e19e3cf6c36b1ec471ae41b5eacee902a846faa33d103e111',
    'integer stabilize-doubling-dendrogram': '92061f87a79fd2507f394b1acac494e208d3607f86ba2a5a9983d39cbe611caf',
    'integer stabilize-linear': '1ef356c38fa8668a857585ece527666a250d080536f624e678e875ce63e46f92',
    'integer stabilize-linear-dendrogram': '92061f87a79fd2507f394b1acac494e208d3607f86ba2a5a9983d39cbe611caf',
    'integer subdominant': 'e9c74be7d512fc6f7efbd30527c8235ac7d1627309365949382ee14572b6080b',
    'integer-grid-837 stabilize-doubling': '5a7e61bb2247ba5fa54c126286ca410d5a9e4f0ec78e57d9dd079d09815ded04',
    'lattice dendrogram': '1354f441f9d009593b2c2e3d7ada4f78e6a6cf6275682b88cc40cadf8d13fc52',
    'lattice dendrogram-binned': '1db4d1e5e4d54f22d948b595b70edbf542a8d051df6ab68a3586e1b3371d2994',
    'lattice dendrogram-cut': 'ac51ffe0f3bf5b452fa29db493ef6ec030b785cadcf6ca43e60524e02541135a',
    'lattice histograms': '18eff99cc34249f2214ecc21e3c46f5a0e30b5418aced72fd09e4d80e2e7c743',
    'lattice is_ultrametric': 'e87b90e308ac1276e151c56f91da145768b95c5ab8008456aec03571cf59d74a',
    'lattice minimax_oracle': '6917f174444866f0fc66a4e98117ede0028a1d91b3b882109bbc46eff7e870bf',
    'lattice spheric_clustering': 'e755aa4fbfda8117f0f019dc97a0161f75131a0607b964fdc888ecbdfe27e0e3',
    'lattice stabilize-doubling': 'd4bf2e6ce7b609eb3019cc20170b649daed7fd6353d71c7de475187887484983',
    'lattice stabilize-doubling-dendrogram': 'f8279e374afb005ab058e982dd12a79d96b323b9b4aeac7742dbf65e8f5cd5fd',
    'lattice stabilize-linear': 'bc00812016cf4479407e37f289c72f9bb2f7874ba980290738b950054405ddc2',
    'lattice stabilize-linear-dendrogram': 'f8279e374afb005ab058e982dd12a79d96b323b9b4aeac7742dbf65e8f5cd5fd',
    'lattice subdominant': '6917f174444866f0fc66a4e98117ede0028a1d91b3b882109bbc46eff7e870bf',
    'lattice-1600 stabilize-doubling': '71645fc1225d19d6ea261275d79a573d5207bcf604a85e5d0ab2efbb478729ec',
    'path dendrogram': '2062a90bca75eea929274f7ebd07ee9628ea5f02b46a302e59a05fb5e30c100b',
    'path dendrogram-binned': '336ecd0e8df55aa803e94b8930e3d3ce51e50e36293a218ebf30dd8d0c36fb5e',
    'path dendrogram-cut': 'f0eb98b5b2954d9370323b3f6c9f00c39e9bdfee934af11a80f6d010dbf9f86d',
    'path histograms': '8e1e9c5365155abff9b8a261694e332811bcd8c15560f9f832ec5096bb491ca8',
    'path is_ultrametric': 'e87b90e308ac1276e151c56f91da145768b95c5ab8008456aec03571cf59d74a',
    'path minimax_oracle': '68ab0c40f99203652b57c9d1adbf14213d871ce4e65bcb5a9515e129d5f450b0',
    'path spheric_clustering': 'fec2cfcde475d345d27ddda7c02d3217e1be7f889959d18d3c37bbb1e6950011',
    'path stabilize-doubling': 'cc1e3cecc28254d300bddaf40634ab7835edcd6800f79c06b816dc9d954e7846',
    'path stabilize-doubling-dendrogram': 'bdc1b2458f28d8d73f655263b4a51a6a61ffb5e413f6a91d5d6026e0eddc34e3',
    'path stabilize-linear': 'c29517f0455c5ef690637efe645f5ec412986c10e7765a9ab5bf7aa03d5df5ba',
    'path stabilize-linear-dendrogram': 'bdc1b2458f28d8d73f655263b4a51a6a61ffb5e413f6a91d5d6026e0eddc34e3',
    'path subdominant': '68ab0c40f99203652b57c9d1adbf14213d871ce4e65bcb5a9515e129d5f450b0',
    'path-1000 stabilize-doubling': '064f2e799ccf5e07581b48e9f533350fb9744aa70a9bf8068c2e031f1d02eec4',
    'signed minimax_oracle': 'e487c670343544af56d259f75b9e00d93d4cfc00778d57736dafbc2af4c3168a',
    'tree-600 stabilize-doubling': 'ec55beee9215007d71eaef5707eb0204689eb877dbb1d9320b6311e2a3086d27',
    'uniform dendrogram': '9682a100fcfbe5956c2822d6b093faa4e430c29384dce929f7d96c1e1c99ed73',
    'uniform dendrogram-binned': '22ba82bb6ef662d54c8485d55403ee3baf9db23f7d3c20003d6baa5f57960991',
    'uniform dendrogram-cut': 'b87616180618831c5f990f92a71734e4511b090ee0b2800cc679cf4634d47a69',
    'uniform histograms': '327b657fb470cd3f3e10972503df6aee751dd4e79465ffa0edd070528c598591',
    'uniform is_ultrametric': 'e87b90e308ac1276e151c56f91da145768b95c5ab8008456aec03571cf59d74a',
    'uniform minimax_oracle': '777ffbba3668c9e56a7d65b91aae645a20c26bbc9debc358165ec9065b650793',
    'uniform spheric_clustering': '525fd0d2333463413e0569e420efce7cf5679633ecb8ea2b1af549bfc77e917a',
    'uniform stabilize-doubling': 'ac477e1b597ef48f2d2fc4cd92fbc85a56c92ffb039093dca4acd718778ad02e',
    'uniform stabilize-doubling-dendrogram': '0ed2e0bc24684dc7f5146ad0062a80f68c95e2e635dcd79093d3fdd404f168fe',
    'uniform stabilize-linear': '0896f701c1f1c4218fa799e2ad4154db153ade5971ae1251be47024255948c31',
    'uniform stabilize-linear-dendrogram': '0ed2e0bc24684dc7f5146ad0062a80f68c95e2e635dcd79093d3fdd404f168fe',
    'uniform subdominant': '777ffbba3668c9e56a7d65b91aae645a20c26bbc9debc358165ec9065b650793',
    'uniform-300 stabilize-doubling': 'c804110a2bfe3d7c12f295a7735b04f831c27f92b869909bb76752e27cb69325',
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return all_outputs(str(tmp_path_factory.mktemp("golden")))


def test_every_output_has_a_digest(outputs):
    assert sorted(outputs) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_bytes_are_unchanged(outputs, name):
    assert outputs[name] == DIGESTS[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        print("DIGESTS = {")
        for name, value in sorted(all_outputs(workdir).items()):
            print(f"    {name!r}: {value!r},")
        print("}")
